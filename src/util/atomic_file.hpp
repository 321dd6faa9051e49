// Whole-file I/O: durable writes and the one whole-file reader.
//
// Every artifact sink (run reports, windows JSONL, metrics snapshots,
// Chrome traces, CSVs, checkpoints, sweep manifests) writes through
// atomic_write_file: the content lands in a sibling temp file which is
// renamed over the destination only after a successful close. A crash,
// kill or full disk can therefore never leave a torn or truncated
// artifact behind — the destination either keeps its previous content or
// holds the complete new one. (The pattern was first proven by the
// characterisation profile cache; this is the shared extraction.)
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace hetsched {

// Atomically replaces `path` with `content` via temp-file + rename.
// Returns false (destination untouched, temp file cleaned up) when the
// temp file cannot be created, written, or renamed.
bool atomic_write_file(const std::string& path, std::string_view content);

// The whole content of `path`, read in binary mode; nullopt when it
// cannot be opened.
std::optional<std::string> read_file(const std::string& path);

}  // namespace hetsched
