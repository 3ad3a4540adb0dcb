#include "src/data/io.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "src/common/atomic_file.h"
#include "src/common/string_util.h"

namespace p3c::data {

namespace {

constexpr char kMagic[4] = {'P', '3', 'C', 'D'};
/// v1: magic + version + n + d. v2 appends a u64 FNV-1a payload
/// checksum. Writers emit v2; readers accept both.
constexpr uint32_t kVersion = 2;
constexpr uint32_t kMinVersion = 1;
constexpr size_t kHeaderBytesV1 = sizeof(kMagic) + sizeof(uint32_t) +
                                  2 * sizeof(uint64_t);
constexpr size_t kHeaderBytesV2 = kHeaderBytesV1 + sizeof(uint64_t);

/// RAII FILE* wrapper.
class File {
 public:
  File(const std::string& path, const char* mode)
      : f_(std::fopen(path.c_str(), mode)) {}
  ~File() {
    if (f_ != nullptr) std::fclose(f_);
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  bool ok() const { return f_ != nullptr; }
  std::FILE* get() { return f_; }

 private:
  std::FILE* f_;
};

}  // namespace

Status WriteCsv(const Dataset& dataset, const std::string& path) {
  AtomicFileWriter writer(path);
  P3C_RETURN_NOT_OK(writer.Open());
  const size_t n = dataset.num_points();
  const size_t d = dataset.num_dims();
  for (size_t i = 0; i < n; ++i) {
    const auto row = dataset.Row(static_cast<PointId>(i));
    for (size_t j = 0; j < d; ++j) {
      if (std::fprintf(writer.stream(), j + 1 < d ? "%.17g," : "%.17g\n",
                       row[j]) < 0) {
        return Status::IOError("write failed: " + path);
      }
    }
  }
  return writer.Commit();
}

Result<Dataset> ReadCsv(const std::string& path) {
  File f(path, "r");
  if (!f.ok()) {
    return Status::IOError("cannot open for reading: " + path + ": " +
                           std::strerror(errno));
  }
  Dataset out;
  std::string line;
  std::vector<double> row;
  int ch;
  size_t line_no = 0;
  while (true) {
    line.clear();
    while ((ch = std::fgetc(f.get())) != EOF && ch != '\n') {
      line.push_back(static_cast<char>(ch));
    }
    if (line.empty() && ch == EOF) break;
    ++line_no;
    if (StripWhitespace(line).empty()) {
      if (ch == EOF) break;
      continue;
    }
    row.clear();
    for (const std::string& field : Split(line, ',')) {
      char* end = nullptr;
      const std::string stripped(StripWhitespace(field));
      const double v = std::strtod(stripped.c_str(), &end);
      if (end == stripped.c_str() || *end != '\0') {
        return Status::IOError(StringPrintf(
            "%s:%zu: non-numeric field '%s'", path.c_str(), line_no,
            stripped.c_str()));
      }
      // nan, inf and overflowing literals (1e999 parses as inf) would
      // only fail much later, as "not normalized".
      if (!std::isfinite(v)) {
        return Status::IOError(StringPrintf("%s:%zu:%zu: value is not finite",
                                            path.c_str(), line_no,
                                            row.size() + 1));
      }
      row.push_back(v);
    }
    Status st = out.AppendRow(row);
    if (!st.ok()) {
      return Status::IOError(StringPrintf("%s:%zu: %s", path.c_str(), line_no,
                                          st.message().c_str()));
    }
    if (ch == EOF) break;
  }
  return out;
}

Result<Dataset> ReadDataset(const std::string& path) {
  File f(path, "rb");
  if (!f.ok()) {
    return Status::IOError("cannot open for reading: " + path + ": " +
                           std::strerror(errno));
  }
  char magic[sizeof(kMagic)];
  const bool binary =
      std::fread(magic, 1, sizeof(magic), f.get()) == sizeof(magic) &&
      std::memcmp(magic, kMagic, sizeof(kMagic)) == 0;
  return binary ? ReadBinary(path) : ReadCsv(path);
}

uint64_t Fnv1a64(const void* data, size_t len, uint64_t state) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    state = (state ^ bytes[i]) * 1099511628211ull;
  }
  return state;
}

Result<BinaryHeader> ReadBinaryHeader(std::FILE* f, const std::string& path) {
  BinaryHeader header;
  char magic[4];
  if (std::fread(magic, 1, sizeof(magic), f) != sizeof(magic) ||
      std::memcmp(magic, kMagic, sizeof(magic)) != 0) {
    return Status::IOError("not a P3CD container (bad magic): " + path);
  }
  if (std::fread(&header.version, sizeof(header.version), 1, f) != 1) {
    return Status::IOError("truncated header: " + path);
  }
  if (header.version < kMinVersion || header.version > kVersion) {
    return Status::IOError(StringPrintf(
        "unsupported container version %u (supported: %u..%u): %s",
        header.version, kMinVersion, kVersion, path.c_str()));
  }
  if (std::fread(&header.num_points, sizeof(header.num_points), 1, f) != 1 ||
      std::fread(&header.num_dims, sizeof(header.num_dims), 1, f) != 1) {
    return Status::IOError("truncated header: " + path);
  }
  header.header_bytes = kHeaderBytesV1;
  if (header.version >= 2) {
    if (std::fread(&header.checksum, sizeof(header.checksum), 1, f) != 1) {
      return Status::IOError("truncated header (missing checksum): " + path);
    }
    header.header_bytes = kHeaderBytesV2;
  }
  if (header.num_dims == 0 && header.num_points > 0) {
    return Status::IOError("zero dimensionality: " + path);
  }
  return header;
}

Status ValidateBinarySize(const BinaryHeader& header, uint64_t file_size,
                          const std::string& path) {
  const uint64_t expected =
      static_cast<uint64_t>(header.header_bytes) +
      header.num_points * header.num_dims * sizeof(double);
  if (file_size == expected) return Status::OK();
  return Status::IOError(StringPrintf(
      "%s: %llu points x %llu dims implies %llu bytes, file has %llu "
      "(truncated or trailing garbage)",
      path.c_str(), static_cast<unsigned long long>(header.num_points),
      static_cast<unsigned long long>(header.num_dims),
      static_cast<unsigned long long>(expected),
      static_cast<unsigned long long>(file_size)));
}

Status WriteBinary(const Dataset& dataset, const std::string& path) {
  AtomicFileWriter writer(path);
  P3C_RETURN_NOT_OK(writer.Open());
  const uint64_t n = dataset.num_points();
  const uint64_t d = dataset.num_dims();
  const auto& values = dataset.values();
  const uint64_t checksum =
      Fnv1a64(values.data(), values.size() * sizeof(double));
  P3C_RETURN_NOT_OK(writer.Append(kMagic, sizeof(kMagic)));
  P3C_RETURN_NOT_OK(writer.Append(&kVersion, sizeof(kVersion)));
  P3C_RETURN_NOT_OK(writer.Append(&n, sizeof(n)));
  P3C_RETURN_NOT_OK(writer.Append(&d, sizeof(d)));
  P3C_RETURN_NOT_OK(writer.Append(&checksum, sizeof(checksum)));
  if (!values.empty()) {
    P3C_RETURN_NOT_OK(
        writer.Append(values.data(), values.size() * sizeof(double)));
  }
  return writer.Commit();
}

Result<Dataset> ReadBinary(const std::string& path) {
  File f(path, "rb");
  if (!f.ok()) {
    return Status::IOError("cannot open for reading: " + path + ": " +
                           std::strerror(errno));
  }
  Result<BinaryHeader> header = ReadBinaryHeader(f.get(), path);
  if (!header.ok()) return header.status();
  if (std::fseek(f.get(), 0, SEEK_END) != 0) {
    return Status::IOError("seek failed: " + path);
  }
  const long file_size = std::ftell(f.get());
  if (file_size < 0) return Status::IOError("tell failed: " + path);
  P3C_RETURN_NOT_OK(ValidateBinarySize(
      *header, static_cast<uint64_t>(file_size), path));
  if (std::fseek(f.get(), static_cast<long>(header->header_bytes),
                 SEEK_SET) != 0) {
    return Status::IOError("seek failed: " + path);
  }
  const uint64_t n = header->num_points;
  const uint64_t d = header->num_dims;
  std::vector<double> values(n * d);
  if (!values.empty() &&
      std::fread(values.data(), sizeof(double), values.size(), f.get()) !=
          values.size()) {
    return Status::IOError("truncated payload: " + path);
  }
  if (header->version >= 2) {
    const uint64_t checksum =
        Fnv1a64(values.data(), values.size() * sizeof(double));
    if (checksum != header->checksum) {
      return Status::IOError(StringPrintf(
          "%s: payload checksum mismatch (header %016llx, computed %016llx): "
          "file is corrupt",
          path.c_str(), static_cast<unsigned long long>(header->checksum),
          static_cast<unsigned long long>(checksum)));
    }
  }
  if (d == 0) return Dataset();
  return Dataset::FromRowMajor(std::move(values), d);
}

namespace {

constexpr char kBlobMagic[4] = {'P', '3', 'C', 'K'};
constexpr uint32_t kBlobVersion = 1;
constexpr size_t kBlobHeaderBytes = sizeof(kBlobMagic) + 2 * sizeof(uint32_t) +
                                    2 * sizeof(uint64_t);

}  // namespace

Status WriteBlobFile(const std::string& path, uint32_t kind,
                     const std::string& payload) {
  AtomicFileWriter writer(path);
  P3C_RETURN_NOT_OK(writer.Open());
  const uint64_t size = payload.size();
  const uint64_t checksum = Fnv1a64(payload.data(), payload.size());
  P3C_RETURN_NOT_OK(writer.Append(kBlobMagic, sizeof(kBlobMagic)));
  P3C_RETURN_NOT_OK(writer.Append(&kBlobVersion, sizeof(kBlobVersion)));
  P3C_RETURN_NOT_OK(writer.Append(&kind, sizeof(kind)));
  P3C_RETURN_NOT_OK(writer.Append(&size, sizeof(size)));
  P3C_RETURN_NOT_OK(writer.Append(&checksum, sizeof(checksum)));
  P3C_RETURN_NOT_OK(writer.Append(payload));
  return writer.Commit();
}

Result<std::string> ReadBlobFile(const std::string& path,
                                 uint32_t expected_kind) {
  File f(path, "rb");
  if (!f.ok()) {
    return Status::IOError("cannot open for reading: " + path + ": " +
                           std::strerror(errno));
  }
  char magic[4];
  uint32_t version = 0;
  uint32_t kind = 0;
  uint64_t size = 0;
  uint64_t checksum = 0;
  if (std::fread(magic, 1, sizeof(magic), f.get()) != sizeof(magic) ||
      std::memcmp(magic, kBlobMagic, sizeof(magic)) != 0) {
    return Status::IOError("not a P3CK blob (bad magic): " + path);
  }
  if (std::fread(&version, sizeof(version), 1, f.get()) != 1 ||
      std::fread(&kind, sizeof(kind), 1, f.get()) != 1 ||
      std::fread(&size, sizeof(size), 1, f.get()) != 1 ||
      std::fread(&checksum, sizeof(checksum), 1, f.get()) != 1) {
    return Status::IOError("truncated blob header: " + path);
  }
  if (version != kBlobVersion) {
    return Status::IOError(StringPrintf(
        "unsupported blob container version %u (expected %u): %s", version,
        kBlobVersion, path.c_str()));
  }
  if (kind != expected_kind) {
    return Status::IOError(StringPrintf(
        "blob kind mismatch (found %u, expected %u): %s", kind, expected_kind,
        path.c_str()));
  }
  if (std::fseek(f.get(), 0, SEEK_END) != 0) {
    return Status::IOError("seek failed: " + path);
  }
  const long file_size = std::ftell(f.get());
  if (file_size < 0) return Status::IOError("tell failed: " + path);
  if (static_cast<uint64_t>(file_size) != kBlobHeaderBytes + size) {
    return Status::IOError(StringPrintf(
        "%s: blob declares %llu payload bytes, file has %llu after the "
        "header (truncated or trailing garbage)",
        path.c_str(), static_cast<unsigned long long>(size),
        static_cast<unsigned long long>(
            static_cast<uint64_t>(file_size) -
            std::min<uint64_t>(static_cast<uint64_t>(file_size),
                               kBlobHeaderBytes))));
  }
  if (std::fseek(f.get(), static_cast<long>(kBlobHeaderBytes), SEEK_SET) !=
      0) {
    return Status::IOError("seek failed: " + path);
  }
  std::string payload(size, '\0');
  if (size > 0 &&
      std::fread(payload.data(), 1, payload.size(), f.get()) !=
          payload.size()) {
    return Status::IOError("truncated blob payload: " + path);
  }
  const uint64_t computed = Fnv1a64(payload.data(), payload.size());
  if (computed != checksum) {
    return Status::IOError(StringPrintf(
        "%s: blob payload checksum mismatch (header %016llx, computed "
        "%016llx): file is corrupt",
        path.c_str(), static_cast<unsigned long long>(checksum),
        static_cast<unsigned long long>(computed)));
  }
  return payload;
}

}  // namespace p3c::data
