#include "src/data/io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "src/data/colon.h"

namespace p3c::data {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

Dataset SampleData() {
  return Dataset::FromRowMajor({0.25, 0.5, 0.125, 1.0, 0.0, 1e-17}, 3)
      .value();
}

/// Hand-writes a version-2 container: 32-byte header with a byte-serial
/// FNV-1a checksum of `values`, then the values.
void WriteVersion2(const std::string& path, uint64_t n, uint64_t d,
                   const std::vector<double>& values) {
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char magic[4] = {'P', '3', 'C', 'D'};
  const uint32_t version = 2;
  const uint64_t checksum =
      Fnv1a64(values.data(), values.size() * sizeof(double));
  ASSERT_EQ(std::fwrite(magic, 1, sizeof(magic), f), sizeof(magic));
  ASSERT_EQ(std::fwrite(&version, sizeof(version), 1, f), 1u);
  ASSERT_EQ(std::fwrite(&n, sizeof(n), 1, f), 1u);
  ASSERT_EQ(std::fwrite(&d, sizeof(d), 1, f), 1u);
  ASSERT_EQ(std::fwrite(&checksum, sizeof(checksum), 1, f), 1u);
  ASSERT_EQ(std::fwrite(values.data(), sizeof(double), values.size(), f),
            values.size());
  std::fclose(f);
}

void FlipByte(const std::string& path, long offset) {
  FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  const int byte = std::fgetc(f);
  ASSERT_NE(byte, EOF);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  std::fputc(byte ^ 0x5a, f);
  std::fclose(f);
}

/// 1000 rows x 3 dims of distinct doubles.
std::vector<double> ChecksumRows() {
  std::vector<double> values(3000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>(i) / 3000.0 + 1e-9 * (i % 7);
  }
  return values;
}

uint64_t Digest(const void* data, size_t len) {
  WordChecksum checksum;
  checksum.Update(data, len);
  return checksum.Digest();
}

TEST(WordChecksumTest, KnownAnswers) {
  // Pins the v3 on-disk checksum: a change here breaks every .p3cd
  // already written. The constants come from a separate reimplementation
  // of the WordChecksum description in io.h.
  std::vector<unsigned char> bytes(1001);
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<unsigned char>(i * 7 + 3);
  }
  EXPECT_EQ(Digest(nullptr, 0), 0x9402f1d3889db8acull);
  EXPECT_EQ(Digest(bytes.data(), 5), 0x5ce22f7487bc274eull);
  EXPECT_EQ(Digest(bytes.data(), bytes.size()), 0x28f76cfa57d35eefull);
}

TEST(WordChecksumTest, SplitDoesNotChangeTheDigest) {
  const std::vector<double> rows = ChecksumRows();
  const auto* bytes = reinterpret_cast<const unsigned char*>(rows.data());
  const size_t len = rows.size() * sizeof(double);
  const uint64_t whole = Digest(bytes, len);
  // Row-sized pieces (3 doubles) and odd word and byte counts, so the
  // lane position and the partial-word carry cross every boundary.
  for (const size_t piece : {3 * 8 * 1, 3 * 8 * 3, 3 * 8 * 500, 3 * 8 * 777,
                             8 * 1, 8 * 3, 8 * 5, 8 * 7, 1, 13}) {
    WordChecksum checksum;
    for (size_t at = 0; at < len; at += piece) {
      checksum.Update(bytes + at, std::min(piece, len - at));
    }
    EXPECT_EQ(checksum.Digest(), whole) << "piece of " << piece << " bytes";
  }
}

TEST(WordChecksumTest, DetectsSameLaneSignBitFlips) {
  // Words 0 and 4 share a lane. Without the per-step rotation, flipping
  // bit 63 of both would cancel: (h ^ 2^63) * p == (h * p) ^ 2^63.
  std::vector<double> rows = ChecksumRows();
  const uint64_t clean = Digest(rows.data(), rows.size() * sizeof(double));
  rows[0] = -rows[0];
  rows[4] = -rows[4];
  EXPECT_NE(Digest(rows.data(), rows.size() * sizeof(double)), clean);
  rows[0] = -rows[0];
  EXPECT_NE(Digest(rows.data(), rows.size() * sizeof(double)), clean);
}

TEST(CsvIoTest, RoundTrip) {
  const std::string path = TempPath("round.csv");
  const Dataset original = SampleData();
  ASSERT_TRUE(WriteCsv(original, path).ok());
  Result<Dataset> loaded = ReadCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_points(), 2u);
  EXPECT_EQ(loaded->num_dims(), 3u);
  EXPECT_EQ(loaded->values(), original.values());  // %.17g round-trips
  std::remove(path.c_str());
}

TEST(CsvIoTest, MissingFileFails) {
  Result<Dataset> loaded = ReadCsv(TempPath("does-not-exist.csv"));
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST(CsvIoTest, NonNumericFieldFails) {
  const std::string path = TempPath("bad.csv");
  FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("1.0,banana\n", f);
  std::fclose(f);
  Result<Dataset> loaded = ReadCsv(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(CsvIoTest, RaggedRowsFail) {
  const std::string path = TempPath("ragged.csv");
  FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("1,2,3\n1,2\n", f);
  std::fclose(f);
  EXPECT_FALSE(ReadCsv(path).ok());
  std::remove(path.c_str());
}

class CsvNonFiniteTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CsvNonFiniteTest, FailsWithLineAndColumn) {
  const std::string path = TempPath("nonfinite.csv");
  FILE* f = std::fopen(path.c_str(), "w");
  std::fprintf(f, "0.1,0.2,0.3\n0.4,0.5,%s\n", GetParam());
  std::fclose(f);
  Result<Dataset> loaded = ReadCsv(path);
  ASSERT_FALSE(loaded.ok()) << GetParam() << " was accepted";
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  EXPECT_EQ(loaded.status().message(), path + ":2:3: value is not finite");
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Spellings, CsvNonFiniteTest,
                         ::testing::Values("nan", "inf", "-inf", "1e999"));

TEST(ReadDatasetTest, DetectsTheContainerByMagicNotName) {
  const Dataset original = SampleData();
  const std::string binary = TempPath("points.bin");
  ASSERT_TRUE(WriteBinary(original, binary).ok());
  Result<Dataset> from_binary = ReadDataset(binary);
  ASSERT_TRUE(from_binary.ok()) << from_binary.status().ToString();
  EXPECT_EQ(from_binary->values(), original.values());

  // A CSV file carrying the container's extension is still CSV.
  const std::string csv = TempPath("points-as-csv.p3cd");
  ASSERT_TRUE(WriteCsv(original, csv).ok());
  Result<Dataset> from_csv = ReadDataset(csv);
  ASSERT_TRUE(from_csv.ok()) << from_csv.status().ToString();
  EXPECT_EQ(from_csv->values(), original.values());

  EXPECT_EQ(ReadDataset(TempPath("does-not-exist")).status().code(),
            StatusCode::kIOError);
  std::remove(binary.c_str());
  std::remove(csv.c_str());
}

TEST(BinaryIoTest, RoundTrip) {
  const std::string path = TempPath("round.p3cd");
  const Dataset original = SampleData();
  ASSERT_TRUE(WriteBinary(original, path).ok());
  Result<Dataset> loaded = ReadBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->values(), original.values());
  EXPECT_EQ(loaded->num_dims(), 3u);
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RejectsBadMagic) {
  const std::string path = TempPath("bad.p3cd");
  FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("NOPE and more bytes to skip the magic check", f);
  std::fclose(f);
  EXPECT_FALSE(ReadBinary(path).ok());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RejectsTruncatedPayload) {
  const std::string path = TempPath("trunc.p3cd");
  ASSERT_TRUE(WriteBinary(SampleData(), path).ok());
  // Truncate the file.
  FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
#ifdef _WIN32
  _chsize(fileno(f), 30);
#else
  ASSERT_EQ(ftruncate(fileno(f), 30), 0);
#endif
  std::fclose(f);
  EXPECT_FALSE(ReadBinary(path).ok());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RejectsFlippedPayloadByte) {
  const std::string path = TempPath("corrupt.p3cd");
  ASSERT_TRUE(WriteBinary(SampleData(), path).ok());
  // Flip one byte in the middle of the payload: the size still matches,
  // so only the checksum can catch it.
  FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 40, SEEK_SET), 0);
  int byte = std::fgetc(f);
  ASSERT_NE(byte, EOF);
  ASSERT_EQ(std::fseek(f, 40, SEEK_SET), 0);
  std::fputc(byte ^ 0x5a, f);
  std::fclose(f);
  Result<Dataset> loaded = ReadBinary(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  EXPECT_NE(loaded.status().message().find("checksum mismatch"),
            std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RejectsTrailingGarbage) {
  const std::string path = TempPath("padded.p3cd");
  ASSERT_TRUE(WriteBinary(SampleData(), path).ok());
  FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fputs("extra", f);
  std::fclose(f);
  Result<Dataset> loaded = ReadBinary(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("trailing garbage"),
            std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(BinaryIoTest, ReadsVersion1Container) {
  // Hand-write a v1 file (no checksum field): readers must stay
  // backward compatible.
  const std::string path = TempPath("v1.p3cd");
  const Dataset original = SampleData();
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char magic[4] = {'P', '3', 'C', 'D'};
  const uint32_t version = 1;
  const uint64_t n = original.num_points();
  const uint64_t d = original.num_dims();
  ASSERT_EQ(std::fwrite(magic, 1, sizeof(magic), f), sizeof(magic));
  ASSERT_EQ(std::fwrite(&version, sizeof(version), 1, f), 1u);
  ASSERT_EQ(std::fwrite(&n, sizeof(n), 1, f), 1u);
  ASSERT_EQ(std::fwrite(&d, sizeof(d), 1, f), 1u);
  const auto& values = original.values();
  ASSERT_EQ(std::fwrite(values.data(), sizeof(double), values.size(), f),
            values.size());
  std::fclose(f);
  Result<Dataset> loaded = ReadBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->values(), original.values());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, WritesVersion3WithWordChecksum) {
  const std::string path = TempPath("v3.p3cd");
  const Dataset original = SampleData();
  ASSERT_TRUE(WriteBinary(original, path).ok());
  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  Result<BinaryHeader> header = ReadBinaryHeader(f, path);
  std::fclose(f);
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header->version, 3u);
  EXPECT_EQ(header->header_bytes, 32u);
  const auto& values = original.values();
  EXPECT_EQ(header->checksum,
            Digest(values.data(), values.size() * sizeof(double)));
  std::remove(path.c_str());
}

TEST(BinaryIoTest, ReadsAndVerifiesVersion2Container) {
  const std::string path = TempPath("v2.p3cd");
  const Dataset original = SampleData();
  WriteVersion2(path, original.num_points(), original.num_dims(),
                original.values());
  Result<Dataset> loaded = ReadBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->values(), original.values());

  FlipByte(path, 40);
  loaded = ReadBinary(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("checksum mismatch"),
            std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RejectsHeaderWhoseSizeOverflows) {
  // n * d * 8 = (2^61 + 1) * 64 wraps to 64 bytes: exactly the payload
  // below, whose FNV-1a is valid. Unchecked, this read as 1 point.
  const std::string path = TempPath("overflow.p3cd");
  const uint64_t n = (uint64_t{1} << 61) + 1;
  WriteVersion2(path, n, 8, std::vector<double>(8, 0.5));
  for (const Result<Dataset>& loaded : {ReadBinary(path), ReadDataset(path)}) {
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
    EXPECT_EQ(loaded.status().message(),
              path + ": 2305843009213693953 points x 8 dims overflows a "
                     "64-bit container size (corrupt header)");
  }
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RejectsUnsupportedVersion) {
  const std::string path = TempPath("future.p3cd");
  ASSERT_TRUE(WriteBinary(SampleData(), path).ok());
  FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  const uint32_t version = 99;
  ASSERT_EQ(std::fseek(f, 4, SEEK_SET), 0);  // right after the magic
  ASSERT_EQ(std::fwrite(&version, sizeof(version), 1, f), 1u);
  std::fclose(f);
  Result<Dataset> loaded = ReadBinary(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("unsupported container version"),
            std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(ColonLikeTest, ShapeAndClasses) {
  const ColonLikeData data = MakeColonLikeDataset();
  EXPECT_EQ(data.dataset.num_points(), 62u);
  EXPECT_EQ(data.dataset.num_dims(), 2000u);
  EXPECT_TRUE(data.dataset.IsNormalized());
  size_t tumor = 0;
  for (int label : data.labels) tumor += label == 1 ? 1 : 0;
  EXPECT_EQ(tumor, 40u);
  EXPECT_EQ(data.informative_genes.size(), 12u);
}

TEST(ColonLikeTest, InformativeGenesSeparateClasses) {
  const ColonLikeData data = MakeColonLikeDataset();
  // On an informative gene, class means should differ clearly more often
  // than not (label noise keeps it from being universal).
  size_t separated = 0;
  for (size_t g : data.informative_genes) {
    double mean_tumor = 0.0;
    double mean_normal = 0.0;
    size_t n_tumor = 0;
    size_t n_normal = 0;
    for (size_t i = 0; i < data.labels.size(); ++i) {
      const double v = data.dataset.Get(static_cast<PointId>(i), g);
      if (data.labels[i] == 1) {
        mean_tumor += v;
        ++n_tumor;
      } else {
        mean_normal += v;
        ++n_normal;
      }
    }
    mean_tumor /= static_cast<double>(n_tumor);
    mean_normal /= static_cast<double>(n_normal);
    if (std::abs(mean_tumor - mean_normal) > 0.2) ++separated;
  }
  EXPECT_GT(separated, data.informative_genes.size() / 2);
}

TEST(ColonLikeTest, DeterministicInSeed) {
  const ColonLikeData a = MakeColonLikeDataset();
  const ColonLikeData b = MakeColonLikeDataset();
  EXPECT_EQ(a.dataset.values(), b.dataset.values());
  EXPECT_EQ(a.labels, b.labels);
}

}  // namespace
}  // namespace p3c::data
