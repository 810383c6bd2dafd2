#ifndef PUFFER_UTIL_JSON_HH
#define PUFFER_UTIL_JSON_HH

#include <string>
#include <string_view>

namespace puffer {

/// JSON string-body escaping per RFC 8259: backslash, double quote, and
/// every control character below 0x20 (named escapes where they exist,
/// \u00XX otherwise). The one escaper behind every JSON the project writes
/// (traces, metric snapshots, campaign reports, bench artifacts), so a
/// path, trace name or scenario id with quotes, Windows separators or stray
/// control bytes keeps the output parseable.
void append_json_escaped(std::string& out, std::string_view text);

[[nodiscard]] std::string json_escape(std::string_view text);

}  // namespace puffer

#endif  // PUFFER_UTIL_JSON_HH
