// Whole-file writes whose failure is reported, not lost. Every report,
// snapshot and checkpoint the project writes goes through writeFile: a
// buffered write to a full device fails only when the file is closed, so a
// check after fwrite alone would report such a file as written.
#pragma once

#include <string>
#include <string_view>

namespace bfvr::util {

/// Create or truncate `path` and write `bytes` to it. False when the file
/// cannot be opened, the write is short or the close fails.
bool writeFile(const std::string& path, std::string_view bytes);

}  // namespace bfvr::util
