// Persistence round-trip tests for point sets and trees.

#include "src/index/serialize.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "src/index/knn.h"
#include "src/index/rstar_tree.h"
#include "src/index/xtree.h"
#include "src/workload/generators.h"

namespace parsim {
namespace {

class SerializeTest : public ::testing::Test {
 protected:
  std::string TempPath(const char* name) {
    return ::testing::TempDir() + "/parsim_" + name;
  }

  void TearDown() override {
    for (const std::string& path : created_) std::remove(path.c_str());
  }

  std::string Track(std::string path) {
    created_.push_back(path);
    return path;
  }

  static std::string ReadBytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }

  // Writes `bytes` with `value` stored over the 8 bytes at `offset` to
  // a new tracked file and returns its path.
  std::string WritePatched(std::string bytes, std::size_t offset,
                           std::uint64_t value, const char* name) {
    std::memcpy(bytes.data() + offset, &value, sizeof(value));
    const std::string path = Track(TempPath(name));
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return path;
  }

  std::vector<std::string> created_;
};

TEST_F(SerializeTest, PointSetRoundTrip) {
  const PointSet original = GenerateUniform(5000, 7, 1101);
  const std::string path = Track(TempPath("points.bin"));
  ASSERT_TRUE(SavePointSet(original, path).ok());
  const Result<PointSet> loaded = LoadPointSet(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const PointSet& copy = loaded.value();
  ASSERT_EQ(copy.size(), original.size());
  ASSERT_EQ(copy.dim(), original.dim());
  for (std::size_t i = 0; i < original.size(); ++i) {
    for (std::size_t j = 0; j < original.dim(); ++j) {
      EXPECT_EQ(copy[i][j], original[i][j]);
    }
  }
}

TEST_F(SerializeTest, EmptyPointSetRoundTrip) {
  const PointSet original(3);
  const std::string path = Track(TempPath("empty.bin"));
  ASSERT_TRUE(SavePointSet(original, path).ok());
  const Result<PointSet> loaded = LoadPointSet(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().size(), 0u);
  EXPECT_EQ(loaded.value().dim(), 3u);
}

TEST_F(SerializeTest, LoadMissingFileFails) {
  EXPECT_EQ(LoadPointSet("/nonexistent/nowhere.bin").status().code(),
            StatusCode::kNotFound);
}

TEST_F(SerializeTest, LoadGarbageFails) {
  const std::string path = Track(TempPath("garbage.bin"));
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a parsim file at all";
  }
  EXPECT_EQ(LoadPointSet(path).status().code(), StatusCode::kInvalidArgument);
  SimulatedDisk disk(0);
  RStarTree tree(3, &disk);
  EXPECT_EQ(LoadTree(&tree, path).code(), StatusCode::kInvalidArgument);
}

TEST_F(SerializeTest, TruncatedPointSetFails) {
  const PointSet original = GenerateUniform(100, 4, 1103);
  const std::string path = Track(TempPath("trunc.bin"));
  ASSERT_TRUE(SavePointSet(original, path).ok());
  // Truncate the file to half.
  std::ifstream in(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(content.data(),
            static_cast<std::streamsize>(content.size() / 2));
  out.close();
  EXPECT_EQ(LoadPointSet(path).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SerializeTest, TreeRoundTripPreservesStructureAndAnswers) {
  SimulatedDisk disk(0);
  XTree original(6, &disk);
  const PointSet data = GenerateUniform(8000, 6, 1105);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(original.Insert(data[i], static_cast<PointId>(i)).ok());
  }
  const std::string path = Track(TempPath("tree.bin"));
  ASSERT_TRUE(SaveTree(original, path).ok());

  SimulatedDisk disk2(1);
  XTree restored(6, &disk2);
  ASSERT_TRUE(LoadTree(&restored, path).ok());
  EXPECT_EQ(restored.size(), original.size());
  EXPECT_EQ(restored.height(), original.height());
  ASSERT_TRUE(restored.ValidateInvariants().ok());

  const PointSet queries = GenerateUniformQueries(10, 6, 1107);
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const KnnResult a = HsKnn(original, queries[qi], 10);
    const KnnResult b = HsKnn(restored, queries[qi], 10);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].distance, b[i].distance);
    }
  }
}

TEST_F(SerializeTest, RestoredTreeAcceptsFurtherInserts) {
  SimulatedDisk disk(0);
  RStarTree original(3, &disk);
  const PointSet data = GenerateUniform(2000, 3, 1109);
  ASSERT_TRUE(original.BulkLoad(data).ok());
  const std::string path = Track(TempPath("tree2.bin"));
  ASSERT_TRUE(SaveTree(original, path).ok());

  SimulatedDisk disk2(1);
  RStarTree restored(3, &disk2);
  ASSERT_TRUE(LoadTree(&restored, path).ok());
  const Point extra = {0.123f, 0.456f, 0.789f};
  ASSERT_TRUE(restored.Insert(extra, 99999).ok());
  ASSERT_TRUE(restored.ValidateInvariants().ok());
  EXPECT_TRUE(restored.Contains(extra, 99999));
  ASSERT_TRUE(restored.Delete(extra, 99999).ok());
  EXPECT_EQ(restored.size(), 2000u);
}

TEST_F(SerializeTest, LoadIntoNonEmptyTreeRejected) {
  SimulatedDisk disk(0);
  RStarTree source(2, &disk);
  ASSERT_TRUE(source.Insert(Point({0.5f, 0.5f}), 0).ok());
  const std::string path = Track(TempPath("tree3.bin"));
  ASSERT_TRUE(SaveTree(source, path).ok());
  EXPECT_EQ(LoadTree(&source, path).code(), StatusCode::kFailedPrecondition);
}

TEST_F(SerializeTest, LoadDimensionMismatchRejected) {
  SimulatedDisk disk(0);
  RStarTree source(2, &disk);
  ASSERT_TRUE(source.Insert(Point({0.5f, 0.5f}), 0).ok());
  const std::string path = Track(TempPath("tree4.bin"));
  ASSERT_TRUE(SaveTree(source, path).ok());
  SimulatedDisk disk2(1);
  RStarTree wrong_dim(3, &disk2);
  EXPECT_EQ(LoadTree(&wrong_dim, path).code(), StatusCode::kInvalidArgument);
}

TEST_F(SerializeTest, EmptyTreeRoundTrip) {
  SimulatedDisk disk(0);
  RStarTree empty(4, &disk);
  const std::string path = Track(TempPath("tree5.bin"));
  ASSERT_TRUE(SaveTree(empty, path).ok());
  SimulatedDisk disk2(1);
  RStarTree restored(4, &disk2);
  ASSERT_TRUE(LoadTree(&restored, path).ok());
  EXPECT_TRUE(restored.empty());
  EXPECT_EQ(restored.root_id(), kInvalidNodeId);
}

TEST_F(SerializeTest, TreeWithDeletionsRoundTrips) {
  // Dissolved node slots must not break the dense-id restore.
  SimulatedDisk disk(0);
  RStarTree original(3, &disk);
  const PointSet data = GenerateUniform(3000, 3, 1111);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(original.Insert(data[i], static_cast<PointId>(i)).ok());
  }
  for (std::size_t i = 0; i < data.size(); i += 3) {
    ASSERT_TRUE(original.Delete(data[i], static_cast<PointId>(i)).ok());
  }
  const std::string path = Track(TempPath("tree6.bin"));
  ASSERT_TRUE(SaveTree(original, path).ok());
  SimulatedDisk disk2(1);
  RStarTree restored(3, &disk2);
  ASSERT_TRUE(LoadTree(&restored, path).ok());
  EXPECT_EQ(restored.size(), original.size());
  ASSERT_TRUE(restored.ValidateInvariants().ok());
}

// LoadTree builds every leaf block, with its SQ8 mirror on a quantized
// tree, before it validates, so a non-finite coordinate must be rejected
// while the entry is read: with a Status, leaving the tree empty.
TEST_F(SerializeTest, NonFiniteCoordinateRejected) {
  const std::size_t dim = 4;
  const PointSet data = GenerateUniform(5, dim, 1171);
  SimulatedDisk disk(0);
  XTree original(dim, &disk);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(original.Insert(data[i], static_cast<PointId>(i)).ok());
  }
  ASSERT_EQ(original.height(), 1);
  const std::string path = Track(TempPath("one_leaf.tree"));
  ASSERT_TRUE(SaveTree(original, path).ok());
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  // The file holds a 40-byte header (magic, version, dim, size, root,
  // node count), the root leaf's 24-byte node header (id, level, pages,
  // split history, entry count), then its entries in insertion order:
  // lo[dim], hi[dim], child. Patch coordinate 2 of data[0], lo and hi.
  const std::size_t lo = 40 + 24 + 2 * sizeof(Scalar);
  const std::size_t hi = lo + dim * sizeof(Scalar);
  ASSERT_GT(bytes.size(), hi + sizeof(Scalar));
  Scalar stored = 0;
  std::memcpy(&stored, bytes.data() + lo, sizeof(Scalar));
  ASSERT_EQ(stored, data[0][2]);
  std::memcpy(&stored, bytes.data() + hi, sizeof(Scalar));
  ASSERT_EQ(stored, data[0][2]);

  for (const Scalar bad : {std::numeric_limits<Scalar>::infinity(),
                           -std::numeric_limits<Scalar>::infinity(),
                           std::numeric_limits<Scalar>::quiet_NaN()}) {
    SCOPED_TRACE(bad);
    std::string patched = bytes;
    std::memcpy(patched.data() + lo, &bad, sizeof(Scalar));
    std::memcpy(patched.data() + hi, &bad, sizeof(Scalar));
    const std::string bad_path = Track(TempPath("one_leaf_patched.tree"));
    {
      std::ofstream out(bad_path, std::ios::binary | std::ios::trunc);
      out.write(patched.data(), static_cast<std::streamsize>(patched.size()));
    }
    for (const bool quantize : {false, true}) {
      SimulatedDisk loaded_disk(1);
      XTree loaded(dim, &loaded_disk);
      loaded.set_quantized_leaf_blocks(quantize);
      const Status s = LoadTree(&loaded, bad_path);
      EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
      EXPECT_NE(s.message().find("corrupt node entry"), std::string::npos)
          << s.message();
      EXPECT_TRUE(loaded.empty());
      EXPECT_EQ(loaded.root_id(), kInvalidNodeId);
      EXPECT_EQ(loaded.num_nodes(), 0u);
    }
  }

  // The unpatched file still loads.
  SimulatedDisk loaded_disk(1);
  XTree loaded(dim, &loaded_disk);
  loaded.set_quantized_leaf_blocks(true);
  ASSERT_TRUE(LoadTree(&loaded, path).ok());
  EXPECT_EQ(loaded.size(), data.size());
}

// Counts read from a file are untrusted: a count far past the bytes that
// follow must end in the short read with a Status, never in a
// reservation that throws or asks for terabytes.
TEST_F(SerializeTest, HugeEntryCountRejected) {
  const std::size_t dim = 4;
  const PointSet data = GenerateUniform(5, dim, 1173);
  SimulatedDisk disk(0);
  XTree original(dim, &disk);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(original.Insert(data[i], static_cast<PointId>(i)).ok());
  }
  ASSERT_EQ(original.height(), 1);
  const std::string path = Track(TempPath("one_leaf_count.tree"));
  ASSERT_TRUE(SaveTree(original, path).ok());
  const std::string bytes = ReadBytes(path);
  // The root leaf's entry count follows the 40-byte file header and the
  // leaf's id, level, pages and split history (4 bytes each).
  const std::size_t at = 40 + 16;
  ASSERT_GT(bytes.size(), at + sizeof(std::uint64_t));
  std::uint64_t stored = 0;
  std::memcpy(&stored, bytes.data() + at, sizeof(stored));
  ASSERT_EQ(stored, data.size());

  for (const std::uint64_t count :
       {std::uint64_t{1} << 62, std::uint64_t{1} << 40}) {
    SCOPED_TRACE(count);
    const std::string bad_path =
        WritePatched(bytes, at, count, "one_leaf_count_patched.tree");
    SimulatedDisk loaded_disk(1);
    XTree loaded(dim, &loaded_disk);
    const Status s = LoadTree(&loaded, bad_path);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
    EXPECT_NE(s.message().find("corrupt node entry"), std::string::npos)
        << s.message();
    EXPECT_TRUE(loaded.empty());
    EXPECT_EQ(loaded.root_id(), kInvalidNodeId);
    EXPECT_EQ(loaded.num_nodes(), 0u);
  }
}

TEST_F(SerializeTest, HugePointCountRejected) {
  const PointSet original = GenerateUniform(5, 3, 1175);
  const std::string path = Track(TempPath("count.bin"));
  ASSERT_TRUE(SavePointSet(original, path).ok());
  const std::string bytes = ReadBytes(path);
  // Magic (8 bytes), version (4) and dim (8), then the point count.
  const std::size_t at = 8 + 4 + 8;
  std::uint64_t stored = 0;
  std::memcpy(&stored, bytes.data() + at, sizeof(stored));
  ASSERT_EQ(stored, original.size());

  for (const std::uint64_t count :
       {std::uint64_t{1} << 62, std::uint64_t{1} << 40}) {
    SCOPED_TRACE(count);
    const Result<PointSet> loaded =
        LoadPointSet(WritePatched(bytes, at, count, "count_patched.bin"));
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace parsim
