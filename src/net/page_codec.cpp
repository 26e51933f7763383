#include "net/page_codec.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/client.hpp"
#include "util/json.hpp"

namespace surro::net {

namespace {

constexpr std::string_view kMagic = "SCOL";
constexpr std::uint8_t kVersion = 1;
constexpr std::uint8_t kNumericalBlock = 0;
constexpr std::uint8_t kCategoricalBlock = 1;

const char* column_kind_name(tabular::ColumnKind kind) noexcept {
  return kind == tabular::ColumnKind::kNumerical ? "numerical" : "categorical";
}

// ------------------------------------------------------------- envelope --

/// Every field of a done page up to and including "schema"; the caller
/// adds "data" (JSON) or nothing (frame) and closes the object.
void write_envelope(util::JsonWriter& w, const PageHeader& h,
                    const tabular::Table& result) {
  const std::uint64_t total = result.num_rows();
  w.begin_object();
  w.kv("job_id", std::to_string(h.job_id));
  w.kv("status", "done");
  w.kv("model", h.model);
  w.kv("rows", total);
  w.kv("seed", std::to_string(h.seed));
  w.kv("chunk_rows", h.chunk_rows);
  w.kv("cache_hit", h.cache_hit);
  w.kv("batch_jobs", h.batch_jobs);
  w.kv("queue_seconds", h.queue_seconds);
  w.kv("sample_seconds", h.sample_seconds);
  w.kv("total_seconds", h.total_seconds);
  w.kv("cursor", h.cursor);
  if (h.end < total) {
    w.kv("next_cursor", h.end);
  } else {
    w.key("next_cursor").null();
  }
  w.key("schema").begin_array();
  for (const auto& col : result.schema().columns()) {
    w.begin_object();
    w.kv("name", col.name);
    w.kv("kind", column_kind_name(col.kind));
    w.end_object();
  }
  w.end_array();
}

/// A JSON number that is exactly a non-negative integer <= 2^53.
std::uint64_t as_count(const util::JsonValue& v, const char* field) {
  const double d = v.as_number();
  if (!(d >= 0.0) || d != std::floor(d) || d > 9007199254740992.0) {
    throw std::runtime_error(std::string(field) + " is not a row count");
  }
  return static_cast<std::uint64_t>(d);
}

struct Extent {
  std::uint64_t cursor = 0;
  std::uint64_t end = 0;
  std::optional<std::uint64_t> next;
};

/// The row range a done envelope claims: [cursor, next_cursor ?? rows),
/// with a next_cursor strictly inside (cursor, rows) so paging advances.
Extent page_extent(const util::JsonValue& doc) {
  if (doc.at("status").as_string() != "done") {
    throw std::runtime_error("page status is not 'done'");
  }
  const std::uint64_t total = as_count(doc.at("rows"), "rows");
  Extent e;
  e.cursor = as_count(doc.at("cursor"), "cursor");
  e.end = total;
  if (const auto& next = doc.at("next_cursor"); !next.is_null()) {
    e.next = as_count(next, "next_cursor");
    if (*e.next <= e.cursor || *e.next >= total) {
      throw std::runtime_error("next_cursor outside (cursor, rows)");
    }
    e.end = *e.next;
  }
  if (e.cursor > e.end) throw std::runtime_error("cursor past the rows");
  return e;
}

tabular::Schema schema_of(const util::JsonValue& doc) {
  const auto& cols = doc.at("schema");
  if (cols.kind != util::JsonValue::Kind::kArray) {
    throw std::runtime_error("schema is not an array");
  }
  std::vector<tabular::ColumnSpec> specs;
  specs.reserve(cols.array.size());
  for (const auto& col : cols.array) {
    const std::string& kind = col.at("kind").as_string();
    if (kind != "numerical" && kind != "categorical") {
      throw std::runtime_error("unknown column kind '" + kind + "'");
    }
    specs.push_back({col.at("name").as_string(),
                     kind == "numerical" ? tabular::ColumnKind::kNumerical
                                         : tabular::ColumnKind::kCategorical});
  }
  return tabular::Schema(std::move(specs));
}

// ---------------------------------------------------------- byte access --

std::uint32_t checked_u32(std::size_t n, const char* what) {
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error(std::string(what) + " does not fit a u32");
  }
  return static_cast<std::uint32_t>(n);
}

// Frames are the host's bytes, memcpy'd both ways, so the host must be
// little-endian like the wire.
static_assert(std::endian::native == std::endian::little,
              "column-block frames assume a little-endian host");

template <typename T>
void put_raw(std::string& out, const T* values, std::size_t n) {
  out.append(reinterpret_cast<const char*>(values), n * sizeof(T));
}

void put_u32(std::string& out, std::uint32_t v) { put_raw(out, &v, 1); }

/// `n` values from the first `n * sizeof(T)` bytes of `bytes`.
template <typename T>
void get_raw(std::string_view bytes, T* values, std::size_t n) {
  if (n == 0) return;  // an empty column's data() may be null
  std::memcpy(values, bytes.data(), n * sizeof(T));
}

/// Bounds-checked forward reader over a frame body.
class Reader {
 public:
  explicit Reader(std::string_view body) : body_(body) {}

  std::string_view take(std::uint64_t n, const char* what) {
    if (n > remaining()) {
      throw std::runtime_error(std::string(what) + " runs past the body");
    }
    const std::string_view out = body_.substr(pos_, n);
    pos_ += n;
    return out;
  }
  std::uint8_t u8(const char* what) {
    return static_cast<std::uint8_t>(take(1, what)[0]);
  }
  std::uint32_t u32(const char* what) {
    std::uint32_t v = 0;
    get_raw(take(4, what), &v, 1);
    return v;
  }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return body_.size() - pos_;
  }

 private:
  std::string_view body_;
  std::size_t pos_ = 0;
};

}  // namespace

// ------------------------------------------------------------- encoding --

std::string encode_json_page(const PageHeader& header,
                             const tabular::Table& result) {
  util::JsonWriter w;
  write_envelope(w, header, result);
  // Cells in schema column order: numerical as exact round-trip numbers
  // (NaN and ±inf degrade to null), categorical as labels.
  w.key("data").begin_array();
  for (std::uint64_t r = header.cursor; r < header.end; ++r) {
    w.begin_array();
    for (std::size_t c = 0; c < result.num_columns(); ++c) {
      if (result.schema().column(c).kind == tabular::ColumnKind::kNumerical) {
        w.value(result.numerical(c)[r]);
      } else {
        w.value(result.label_at(c, r));
      }
    }
    w.end_array();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string encode_colblock_page(const PageHeader& header,
                                 const tabular::Table& result) {
  util::JsonWriter w;
  write_envelope(w, header, result);
  w.end_object();
  const std::string& envelope = w.str();
  const std::size_t rows = header.end - header.cursor;
  const std::size_t cols = result.num_columns();

  std::size_t bytes = kMagic.size() + 1 + 4 + envelope.size() + 8;
  for (std::size_t c = 0; c < cols; ++c) {
    if (result.schema().column(c).kind == tabular::ColumnKind::kNumerical) {
      bytes += 1 + rows * 8;
      continue;
    }
    bytes += 1 + 4 + rows * 4;
    for (const auto& label : result.vocabulary(c)) bytes += 4 + label.size();
  }
  std::string out;
  out.reserve(bytes);
  out.append(kMagic);
  out.push_back(static_cast<char>(kVersion));
  put_u32(out, checked_u32(envelope.size(), "envelope"));
  out.append(envelope);
  put_u32(out, checked_u32(rows, "page rows"));
  put_u32(out, checked_u32(cols, "column count"));
  for (std::size_t c = 0; c < cols; ++c) {
    if (result.schema().column(c).kind == tabular::ColumnKind::kNumerical) {
      out.push_back(static_cast<char>(kNumericalBlock));
      put_raw(out, result.numerical(c).data() + header.cursor, rows);
      continue;
    }
    out.push_back(static_cast<char>(kCategoricalBlock));
    const auto& vocab = result.vocabulary(c);
    put_u32(out, checked_u32(vocab.size(), "dictionary"));
    for (const auto& label : vocab) {
      put_u32(out, checked_u32(label.size(), "label"));
      out.append(label);
    }
    put_raw(out, result.categorical(c).data() + header.cursor, rows);
  }
  return out;
}

// ------------------------------------------------------------- decoding --

DecodedPage decode_json_page(util::JsonValue doc) {
  return decode_or_malformed("job page", [&] {
    const Extent extent = page_extent(doc);
    DecodedPage page;
    page.rows = tabular::Table(schema_of(doc));
    const auto& data = doc.at("data");
    if (data.kind != util::JsonValue::Kind::kArray ||
        data.array.size() != extent.end - extent.cursor) {
      throw std::runtime_error("data does not hold the page's rows");
    }
    auto& table = page.rows;
    const auto& schema = table.schema();
    for (const auto& row : data.array) {
      if (row.array.size() != schema.num_columns()) {
        throw std::runtime_error("row width mismatch");
      }
      auto rb = table.make_row();
      for (std::size_t c = 0; c < row.array.size(); ++c) {
        const auto& cell = row.array[c];
        if (schema.column(c).kind == tabular::ColumnKind::kNumerical) {
          // null is the JSON image of NaN and ±inf.
          rb.set(c, cell.is_null() ? std::numeric_limits<double>::quiet_NaN()
                                   : cell.as_number());
        } else {
          rb.set(c, cell.as_string());
        }
      }
      table.append_row(rb);
    }
    page.cursor = extent.cursor;
    page.next_cursor = extent.next;
    page.envelope = std::move(doc);
    return page;
  });
}

DecodedPage decode_colblock_page(std::string_view body) {
  return decode_or_malformed("column-block page", [&] {
    Reader in(body);
    if (in.take(kMagic.size(), "magic") != kMagic) {
      throw std::runtime_error("bad magic");
    }
    if (const std::uint8_t v = in.u8("version"); v != kVersion) {
      throw std::runtime_error("unsupported frame version " +
                               std::to_string(v));
    }
    DecodedPage page;
    page.envelope =
        util::parse_json(in.take(in.u32("envelope length"), "envelope"));
    const Extent extent = page_extent(page.envelope);
    page.cursor = extent.cursor;
    page.next_cursor = extent.next;
    page.rows = tabular::Table(schema_of(page.envelope));
    auto& table = page.rows;

    const std::uint32_t rows = in.u32("row count");
    if (rows != extent.end - extent.cursor) {
      throw std::runtime_error("row count disagrees with the envelope");
    }
    if (in.u32("column count") != table.num_columns()) {
      throw std::runtime_error("column count disagrees with the schema");
    }
    // Check the claimed rows fit the body before allocating for them.
    std::uint64_t row_bytes = 0;
    for (const auto& col : table.schema().columns()) {
      row_bytes += col.kind == tabular::ColumnKind::kNumerical ? 8 : 4;
    }
    if (std::uint64_t{rows} * row_bytes > in.remaining()) {
      throw std::runtime_error("row count runs past the body");
    }
    table.resize_rows(rows);
    for (std::size_t c = 0; c < table.num_columns(); ++c) {
      const bool numerical =
          table.schema().column(c).kind == tabular::ColumnKind::kNumerical;
      if (in.u8("column kind") !=
          (numerical ? kNumericalBlock : kCategoricalBlock)) {
        throw std::runtime_error("column kind disagrees with the schema");
      }
      if (numerical) {
        get_raw(in.take(std::uint64_t{rows} * 8, "numerical block"),
                table.numerical_mut(c).data(), rows);
        continue;
      }
      const std::uint32_t dict = in.u32("dictionary size");
      if (dict > in.remaining() / 4) {
        throw std::runtime_error("dictionary runs past the body");
      }
      std::vector<std::string> labels;
      labels.reserve(dict);
      for (std::uint32_t i = 0; i < dict; ++i) {
        labels.emplace_back(in.take(in.u32("label length"), "label"));
      }
      table.adopt_vocabulary(c, std::move(labels));
      auto codes = table.categorical_mut(c);
      get_raw(in.take(std::uint64_t{rows} * 4, "code block"), codes.data(),
              rows);
      for (const std::int32_t code : codes) {
        if (static_cast<std::uint32_t>(code) >= dict) {
          throw std::runtime_error("code outside its dictionary");
        }
      }
    }
    if (in.remaining() != 0) throw std::runtime_error("trailing bytes");
    return page;
  });
}

}  // namespace surro::net
