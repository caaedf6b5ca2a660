// Opens the golden v3 snapshot committed under tests/testdata/. The file
// was written once and checked in; this test is the compatibility gate
// that keeps today's reader able to load yesterday's bytes. If a format
// change breaks it, bump kFormatVersion3 and regenerate the golden file
// deliberately — never "fix" the test by rewriting the file in place.
//
// Golden provenance (one command line):
//   cafc cluster --seed 3 --pages 48 --min-cardinality 4
//     --save-v3 tests/testdata/golden_v3.cafc3

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/directory.h"
#include "storage/format.h"
#include "storage/reader.h"

namespace cafc::storage {
namespace {

std::string GoldenPath() {
  return std::string(CAFC_TESTDATA_DIR) + "/golden_v3.cafc3";
}

TEST(StorageGoldenTest, HeaderAndEveryChecksumStillVerify) {
  std::vector<bool> checksum_ok;
  Result<SnapshotFileInfo> info = ReadSnapshotInfo(GoldenPath(), &checksum_ok);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->version, kFormatVersion3);
  ASSERT_EQ(checksum_ok.size(), info->sections.size());
  for (size_t i = 0; i < checksum_ok.size(); ++i) {
    EXPECT_TRUE(checksum_ok[i]) << "section " << i << " checksum mismatch";
  }

  bool has_entries = false;
  bool has_pages = false;
  for (const SectionInfo& section : info->sections) {
    if (section.kind == SectionKind::kEntries) has_entries = true;
    if (section.kind == SectionKind::kPages) has_pages = true;
  }
  EXPECT_TRUE(has_entries);
  EXPECT_TRUE(has_pages) << "golden file was written with pages";
}

TEST(StorageGoldenTest, OpensServesAndMaterializes) {
  Result<std::unique_ptr<MappedSnapshot>> opened =
      MappedSnapshot::Open(GoldenPath());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const MappedSnapshot& snapshot = **opened;

  ASSERT_GT(snapshot.directory().size(), 0u);
  ASSERT_GT(snapshot.num_pages(), 0u);

  Result<DatabaseDirectory> materialized = snapshot.MaterializeDirectory();
  ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
  ASSERT_EQ(materialized->size(), snapshot.directory().size());

  // A stored page classified through the thin (mapped) path must agree
  // with the fully materialized directory — bit for bit.
  const cluster::CentroidIndex reference = materialized->BuildCentroidIndex();
  for (size_t ordinal : {size_t{0}, snapshot.num_pages() - 1}) {
    Result<std::shared_ptr<const FormPage>> page = snapshot.GetPage(ordinal);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    const DatabaseDirectory::Classification thin =
        snapshot.directory().ClassifyPage(
            **page, ContentConfig::kFcPlusPc, snapshot.index());
    const DatabaseDirectory::Classification full = materialized->ClassifyPage(
        **page, ContentConfig::kFcPlusPc, reference);
    EXPECT_EQ(thin.entry, full.entry);
    EXPECT_EQ(thin.similarity, full.similarity);
  }

  const auto thin_hits =
      snapshot.directory().Search("search form query", 3, snapshot.index());
  const auto full_hits =
      materialized->Search("search form query", 3, reference);
  ASSERT_EQ(thin_hits.size(), full_hits.size());
  for (size_t i = 0; i < thin_hits.size(); ++i) {
    EXPECT_EQ(thin_hits[i].entry, full_hits[i].entry);
    EXPECT_EQ(thin_hits[i].similarity, full_hits[i].similarity);
  }
}

TEST(StorageGoldenTest, AutoLoaderNegotiatesTheGoldenAsV3) {
  Result<DatabaseDirectory> loaded = LoadDirectoryAuto(GoldenPath());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_GT(loaded->size(), 0u);
}

}  // namespace
}  // namespace cafc::storage
