#pragma once
// The two wire forms of a done result page (GET /v1/jobs/{id}), in one
// place: the server encodes with them and ApiClient decodes with them.
//
//   * JSON (application/json): the page document, rows as a "data" array of
//     cells in schema order. What curl and every client that does not ask
//     for more receive. NaN and ±inf degrade to null, so to NaN.
//   * Column blocks (application/vnd.surro.colblock, frame v1): the same
//     document minus "data" as a JSON envelope, then the rows as raw
//     little-endian column blocks. Numericals travel as their bit patterns
//     (NaN payloads, ±inf and −0.0 arrive exact); categoricals as the
//     column's dictionary plus u32 codes. Frame, all integers LE:
//
//       "SCOL" u8 version(1)
//       u32 envelope_len, envelope_len bytes of JSON
//       u32 rows, u32 columns
//       per column, in schema order:
//         u8 kind 0 = numerical:   rows × f64
//         u8 kind 1 = categorical: u32 dict_size,
//                                  dict_size × (u32 len, len bytes),
//                                  rows × u32 code
//
// Decoding validates everything against the body and the envelope: every
// length inside the body, rows == (next_cursor ?? rows) − cursor, column
// count and kinds equal to the envelope schema, every code below its
// dictionary size, no trailing bytes. Any violation throws
// TransportError{kMalformed}.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "tabular/table.hpp"
#include "util/json_parse.hpp"

namespace surro::net {

/// The media type a GET /v1/jobs/{id} names in Accept to get column-block
/// pages, and the Content-Type those pages carry.
inline constexpr std::string_view kColblockContentType =
    "application/vnd.surro.colblock";

/// Everything a done page says besides its rows. The rows are
/// [cursor, end) of the job's result table.
struct PageHeader {
  std::uint64_t job_id = 0;
  std::string model;
  std::uint64_t seed = 0;
  std::uint64_t chunk_rows = 0;
  bool cache_hit = false;
  std::uint64_t batch_jobs = 0;
  double queue_seconds = 0.0;
  double sample_seconds = 0.0;
  double total_seconds = 0.0;
  std::uint64_t cursor = 0;
  std::uint64_t end = 0;
};

/// The JSON page document for rows [header.cursor, header.end) of `result`.
[[nodiscard]] std::string encode_json_page(const PageHeader& header,
                                           const tabular::Table& result);

/// The column-block frame for the same rows.
[[nodiscard]] std::string encode_colblock_page(const PageHeader& header,
                                               const tabular::Table& result);

/// One decoded done page.
struct DecodedPage {
  /// The page document: the envelope of a frame, the whole JSON document
  /// (including "data") of a JSON page.
  util::JsonValue envelope;
  /// The page's rows under the envelope's schema.
  tabular::Table rows;
  std::uint64_t cursor = 0;
  /// Where the next page starts; nullopt on the last page.
  std::optional<std::uint64_t> next_cursor;
};

/// Decode a parsed JSON done page: the reference decoder tests and the
/// page_json ledger row use (ApiClient takes column blocks only). Throws
/// TransportError{kMalformed}.
[[nodiscard]] DecodedPage decode_json_page(util::JsonValue doc);

/// Decode a column-block frame. Throws TransportError{kMalformed}.
[[nodiscard]] DecodedPage decode_colblock_page(std::string_view body);

}  // namespace surro::net
