#ifndef P3C_DATA_IO_H_
#define P3C_DATA_IO_H_

#include <cstdint>
#include <cstdio>
#include <string>

#include "src/common/status.h"
#include "src/data/dataset.h"

namespace p3c::data {

/// Writes the dataset as headerless CSV, one point per line, full double
/// precision (%.17g round-trips).
Status WriteCsv(const Dataset& dataset, const std::string& path);

/// Reads a headerless numeric CSV; every line must have the same number
/// of fields. Empty files yield an empty dataset. A field that is nan,
/// inf or overflows a double fails with "path:line:column: value is not
/// finite" (1-based line and field index).
Result<Dataset> ReadCsv(const std::string& path);

/// Writes the dataset in the library's binary container (version 2):
/// magic "P3CD", u32 version, u64 n, u64 d, u64 FNV-1a checksum of the
/// payload, then n*d little-endian doubles. Compact and fast for the
/// large benchmark inputs; the checksum lets readers reject silent
/// corruption and the exact size implied by (n, d) lets them reject
/// truncation.
Status WriteBinary(const Dataset& dataset, const std::string& path);

/// Reads the binary container written by WriteBinary, validating magic,
/// version, exact payload size, and (version >= 2) the payload checksum.
/// Version-1 files (no checksum field) are still readable.
Result<Dataset> ReadBinary(const std::string& path);

/// Reads either format, chosen by content rather than by file name: the
/// binary container when the file starts with the "P3CD" magic, CSV
/// otherwise.
Result<Dataset> ReadDataset(const std::string& path);

/// 64-bit FNV-1a over `len` bytes; pass a previous return value as
/// `state` to hash incrementally (block readers).
uint64_t Fnv1a64(const void* data, size_t len,
                 uint64_t state = 14695981039346656037ull);

/// Parsed header of the binary container. `header_bytes` is the payload
/// offset (24 for v1, 32 for v2); `checksum` is 0 for v1 files.
struct BinaryHeader {
  uint32_t version = 0;
  uint64_t num_points = 0;
  uint64_t num_dims = 0;
  uint64_t checksum = 0;
  size_t header_bytes = 0;
};

/// Reads and validates the container header from `f` (positioned at the
/// file start). Returns a descriptive Status naming `path` on bad magic,
/// unsupported version, truncated header, or zero dimensionality.
Result<BinaryHeader> ReadBinaryHeader(std::FILE* f, const std::string& path);

/// Checks that `file_size` is exactly header + n*d doubles — catching
/// both truncated files and trailing garbage with a Status that names
/// the expected and found byte counts.
Status ValidateBinarySize(const BinaryHeader& header, uint64_t file_size,
                          const std::string& path);

/// Generic checksummed blob container, the checkpoint sibling of the
/// dataset container above: magic "P3CK", u32 container version, u32
/// caller-chosen kind tag, u64 payload size, u64 FNV-1a checksum of the
/// payload, then the payload bytes. The size field rejects truncation
/// and trailing garbage, the checksum rejects bit flips, and the kind
/// tag rejects a structurally valid blob of the wrong species (a phase
/// state file where a manifest was expected). Written via the atomic
/// temp+fsync+rename writer, so a crash mid-write can never leave a
/// half blob under `path`.
Status WriteBlobFile(const std::string& path, uint32_t kind,
                     const std::string& payload);

/// Reads a blob written by WriteBlobFile, validating magic, container
/// version, kind tag, exact size, and payload checksum. Every failure
/// names `path` and the specific violated invariant.
Result<std::string> ReadBlobFile(const std::string& path,
                                 uint32_t expected_kind);

}  // namespace p3c::data

#endif  // P3C_DATA_IO_H_
