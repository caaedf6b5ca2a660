#include "storage/reader.h"

#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cafc.h"
#include "core/dataset.h"
#include "core/directory.h"
#include "storage/format.h"
#include "storage/writer.h"
#include "web/synthesizer.h"
#include "test_util.h"

namespace cafc::storage {
namespace {

web::SynthesizerConfig SmallConfig() {
  web::SynthesizerConfig config;
  config.seed = 77;
  config.form_pages_total = 64;
  config.single_attribute_forms = 8;
  config.homogeneous_hubs_per_domain = 25;
  config.mixed_hubs = 40;
  config.directory_hubs = 3;
  config.large_air_hotel_hubs = 3;
  config.non_searchable_form_pages = 0;
  config.noise_pages = 0;
  config.outlier_pages = 0;
  return config;
}

using ::cafc::test::TempPath;

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  ASSERT_TRUE(out.good());
}

bool DirectoriesIdentical(const DatabaseDirectory& a,
                          const DatabaseDirectory& b) {
  if (a.size() != b.size() || a.epoch() != b.epoch()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const DirectoryEntry& x = a.entries()[i];
    const DirectoryEntry& y = b.entries()[i];
    if (x.label != y.label || x.member_urls != y.member_urls ||
        !(x.centroid.pc == y.centroid.pc) ||
        !(x.centroid.fc == y.centroid.fc)) {
      return false;
    }
  }
  return true;
}

class SnapshotTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    web::SyntheticWeb web = web::Synthesizer(SmallConfig()).Generate();
    dataset_ = new Dataset(std::move(BuildDataset(web)).value());
    pages_ = new FormPageSet(BuildFormPageSet(*dataset_));
    CafcChOptions options;
    options.min_hub_cardinality = 4;
    cluster::Clustering clustering =
        CafcCh(*pages_, web::kNumDomains, options);
    directory_ = new DatabaseDirectory(DatabaseDirectory::Build(
        *pages_, clustering,
        DatabaseDirectory::AutoLabels(*pages_, clustering)));
    v3_path_ = new std::string(TempPath("snapshot_fixture.cafc3"));
    Status status = WriteSnapshotV3(*directory_, pages_, *v3_path_);
    ASSERT_TRUE(status.ok()) << status.ToString();
  }
  static void TearDownTestSuite() {
    std::remove(v3_path_->c_str());
    delete v3_path_;
    delete directory_;
    delete pages_;
    delete dataset_;
    v3_path_ = nullptr;
    directory_ = nullptr;
    pages_ = nullptr;
    dataset_ = nullptr;
  }

  static Dataset* dataset_;
  static FormPageSet* pages_;
  static DatabaseDirectory* directory_;
  static std::string* v3_path_;
};

Dataset* SnapshotTest::dataset_ = nullptr;
FormPageSet* SnapshotTest::pages_ = nullptr;
DatabaseDirectory* SnapshotTest::directory_ = nullptr;
std::string* SnapshotTest::v3_path_ = nullptr;

TEST_F(SnapshotTest, MaterializeRoundTripsBitExactly) {
  Result<std::unique_ptr<MappedSnapshot>> snapshot =
      MappedSnapshot::Open(*v3_path_);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  Result<DatabaseDirectory> materialized =
      (*snapshot)->MaterializeDirectory();
  ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
  EXPECT_TRUE(DirectoriesIdentical(*directory_, *materialized));

  // Classification through the materialized copy is identical bits.
  for (size_t i = 0; i < 10 && i < pages_->size(); ++i) {
    DatabaseDirectory::Classification a =
        directory_->ClassifyPage(pages_->page(i));
    DatabaseDirectory::Classification b =
        materialized->ClassifyPage(pages_->page(i));
    EXPECT_EQ(a.entry, b.entry);
    EXPECT_EQ(a.similarity, b.similarity);
  }
}

TEST_F(SnapshotTest, LoadDirectoryAutoNegotiatesTextAndBinary) {
  const std::string text_path = TempPath("auto_text.cafc");
  ASSERT_TRUE(directory_->SaveToFile(text_path).ok());
  Result<DatabaseDirectory> from_text = LoadDirectoryAuto(text_path);
  Result<DatabaseDirectory> from_v3 = LoadDirectoryAuto(*v3_path_);
  ASSERT_TRUE(from_text.ok()) << from_text.status().ToString();
  ASSERT_TRUE(from_v3.ok()) << from_v3.status().ToString();
  EXPECT_TRUE(DirectoriesIdentical(*from_text, *from_v3));
  std::remove(text_path.c_str());
}

TEST_F(SnapshotTest, TextLoaderPointsV3FilesAtTheStorageLoader) {
  Result<DatabaseDirectory> loaded =
      DatabaseDirectory::LoadFromFile(*v3_path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().ToString().find("binary v3"),
            std::string::npos);
}

TEST_F(SnapshotTest, ThinDirectoryServesIndexedQueriesIdentically) {
  Result<std::unique_ptr<MappedSnapshot>> snapshot =
      MappedSnapshot::Open(*v3_path_);
  ASSERT_TRUE(snapshot.ok());
  const cluster::CentroidIndex reference_index =
      directory_->BuildCentroidIndex();
  for (size_t i = 0; i < pages_->size(); i += 7) {
    DatabaseDirectory::Classification expected = directory_->ClassifyPage(
        pages_->page(i), ContentConfig::kFcPlusPc, reference_index);
    DatabaseDirectory::Classification got =
        (*snapshot)->directory().ClassifyPage(
            pages_->page(i), ContentConfig::kFcPlusPc, (*snapshot)->index());
    EXPECT_EQ(got.entry, expected.entry);
    EXPECT_EQ(got.similarity, expected.similarity);
  }
  for (const char* query :
       {"job career resume", "hotel rooms", "cheap flights"}) {
    auto expected = directory_->Search(query, 4, reference_index);
    auto got = (*snapshot)->directory().Search(query, 4,
                                               (*snapshot)->index());
    ASSERT_EQ(got.size(), expected.size()) << query;
    for (size_t h = 0; h < got.size(); ++h) {
      EXPECT_EQ(got[h].entry, expected[h].entry);
      EXPECT_EQ(got[h].similarity, expected[h].similarity);
    }
  }
}

TEST_F(SnapshotTest, StoredPagesDecodeBitExactly) {
  Result<std::unique_ptr<MappedSnapshot>> snapshot =
      MappedSnapshot::Open(*v3_path_);
  ASSERT_TRUE(snapshot.ok());
  ASSERT_EQ((*snapshot)->num_pages(), pages_->size());
  for (size_t i = 0; i < pages_->size(); i += 5) {
    Result<std::shared_ptr<const FormPage>> page = (*snapshot)->GetPage(i);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    const FormPage& original = pages_->page(i);
    EXPECT_EQ((*page)->url, original.url);
    EXPECT_EQ((*page)->site, original.site);
    EXPECT_EQ((*page)->backlinks, original.backlinks);
    EXPECT_TRUE((*page)->pc == original.pc);
    EXPECT_TRUE((*page)->fc == original.fc);
  }
  EXPECT_EQ((*snapshot)->GetPage(pages_->size()).status().code(),
            StatusCode::kOutOfRange);
}

TEST_F(SnapshotTest, DirectoryOnlySnapshotHasNoPages) {
  const std::string path = TempPath("dir_only.cafc3");
  ASSERT_TRUE(WriteSnapshotV3(*directory_, nullptr, path).ok());
  Result<std::unique_ptr<MappedSnapshot>> snapshot =
      MappedSnapshot::Open(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ((*snapshot)->num_pages(), 0u);
  EXPECT_EQ((*snapshot)->GetPage(0).status().code(),
            StatusCode::kOutOfRange);
  Result<DatabaseDirectory> materialized =
      (*snapshot)->MaterializeDirectory();
  ASSERT_TRUE(materialized.ok());
  EXPECT_TRUE(DirectoriesIdentical(*directory_, *materialized));
  std::remove(path.c_str());
}

TEST_F(SnapshotTest, PageStoreRespectsTheMemoryBudget) {
  Result<std::unique_ptr<MappedSnapshot>> probe =
      MappedSnapshot::Open(*v3_path_);
  ASSERT_TRUE(probe.ok());
  const uint64_t fixed = (*probe)->fixed_resident_bytes();

  SnapshotOpenOptions options;
  options.memory_budget_bytes = fixed + 8 * 1024;
  Result<std::unique_ptr<MappedSnapshot>> snapshot =
      MappedSnapshot::Open(*v3_path_, options);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ((*snapshot)->memory_budget_bytes(), options.memory_budget_bytes);

  // Two sweeps with a pinned hot page: the LRU must produce hits (hot
  // page), misses and evictions (sweep), and never exceed the budget.
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (size_t i = 0; i < (*snapshot)->num_pages(); ++i) {
      ASSERT_TRUE((*snapshot)->GetPage(0).ok());
      ASSERT_TRUE((*snapshot)->GetPage(i).ok());
      EXPECT_LE((*snapshot)->resident_bytes(),
                options.memory_budget_bytes);
    }
  }
  const PageStoreStats stats = (*snapshot)->page_store_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
  EXPECT_GT(stats.evictions, 0u);

  // A budget below the fixed footprint cannot serve anything: refuse.
  SnapshotOpenOptions impossible;
  impossible.memory_budget_bytes = fixed / 2;
  Result<std::unique_ptr<MappedSnapshot>> rejected =
      MappedSnapshot::Open(*v3_path_, impossible);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SnapshotTest, InspectReportsSectionsAndChecksums) {
  std::vector<bool> checksum_ok;
  Result<SnapshotFileInfo> info = ReadSnapshotInfo(*v3_path_, &checksum_ok);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->version, kFormatVersion3);
  ASSERT_EQ(checksum_ok.size(), info->sections.size());
  for (bool ok : checksum_ok) EXPECT_TRUE(ok);
  bool has_entries = false;
  bool has_pages = false;
  for (const SectionInfo& section : info->sections) {
    if (section.kind == SectionKind::kEntries) {
      has_entries = true;
      EXPECT_EQ(section.item_count, directory_->size());
    }
    if (section.kind == SectionKind::kPages) {
      has_pages = true;
      EXPECT_EQ(section.item_count, pages_->size());
    }
  }
  EXPECT_TRUE(has_entries);
  EXPECT_TRUE(has_pages);
}

TEST_F(SnapshotTest, BitFlipInAnySectionFailsTheOpen) {
  const std::string clean = ReadAll(*v3_path_);
  Result<SnapshotFileInfo> info = ReadSnapshotInfo(*v3_path_);
  ASSERT_TRUE(info.ok());
  const std::string path = TempPath("bitflip.cafc3");
  for (const SectionInfo& section : info->sections) {
    std::string corrupted = clean;
    // Flip one bit in the middle of this section's payload.
    const size_t victim = section.offset + section.bytes / 2;
    ASSERT_LT(victim, corrupted.size());
    corrupted[victim] = static_cast<char>(corrupted[victim] ^ 0x10);
    WriteAll(path, corrupted);
    Result<std::unique_ptr<MappedSnapshot>> opened =
        MappedSnapshot::Open(path);
    ASSERT_FALSE(opened.ok())
        << "section " << SectionKindName(section.kind);
    EXPECT_EQ(opened.status().code(), StatusCode::kParseError);
    EXPECT_NE(opened.status().ToString().find("checksum"),
              std::string::npos);

    // inspect-style read still works and pinpoints the broken section.
    std::vector<bool> checksum_ok;
    ASSERT_TRUE(ReadSnapshotInfo(path, &checksum_ok).ok());
    size_t broken = 0;
    for (bool ok : checksum_ok) broken += ok ? 0 : 1;
    EXPECT_EQ(broken, 1u) << SectionKindName(section.kind);
  }
  std::remove(path.c_str());
}

TEST_F(SnapshotTest, TruncationAtAnyBoundaryFailsTheOpen) {
  const std::string clean = ReadAll(*v3_path_);
  const std::string path = TempPath("truncated.cafc3");
  for (size_t keep :
       {size_t{0}, size_t{4}, size_t{63}, kHeaderBytes,
        kHeaderBytes + kSectionRowBytes / 2, clean.size() / 2,
        clean.size() - 1}) {
    WriteAll(path, clean.substr(0, keep));
    Result<std::unique_ptr<MappedSnapshot>> opened =
        MappedSnapshot::Open(path);
    EXPECT_FALSE(opened.ok()) << "kept " << keep;
  }
  std::remove(path.c_str());
}

TEST_F(SnapshotTest, WriteIntoMissingDirectoryFailsAndLeavesNoDroppings) {
  const std::string path = TempPath("no_such_dir") + "/x.cafc3";
  Status status = WriteSnapshotV3(*directory_, nullptr, path);
  EXPECT_FALSE(status.ok());
}

TEST_F(SnapshotTest, FailedRewriteLeavesTheOldSnapshotIntact) {
  // Crash-safety contract of the atomic temp+rename write: a failed
  // rewrite must leave the previous file byte-identical.
  const std::string path = TempPath("atomic.cafc3");
  ASSERT_TRUE(WriteSnapshotV3(*directory_, nullptr, path).ok());
  const std::string before = ReadAll(path);

  // Occupy the temp sibling with a directory so the rewrite cannot open
  // its staging file.
  const std::string tmp_sibling = path + ".tmp";
  ASSERT_EQ(std::remove(tmp_sibling.c_str()) == 0 || errno == ENOENT, true);
  ASSERT_NE(mkdir(tmp_sibling.c_str(), 0700), -1);
  Status status = WriteSnapshotV3(*directory_, pages_, path);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(ReadAll(path), before);
  rmdir(tmp_sibling.c_str());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cafc::storage
