// Durability and diagnostics of the text directory format: a failed
// rewrite must leave the previous file byte-identical (temp + rename
// crash safety), every parse failure must name the exact line and byte
// offset where the file broke, and version-1 files (no epoch line, raw
// labels) must still load with the version negotiated from the header.

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cafc.h"
#include "core/dataset.h"
#include "core/directory.h"
#include "web/synthesizer.h"
#include "test_util.h"

namespace cafc {
namespace {

web::SynthesizerConfig SmallConfig() {
  web::SynthesizerConfig config;
  config.seed = 19;
  config.form_pages_total = 48;
  config.single_attribute_forms = 6;
  config.homogeneous_hubs_per_domain = 20;
  config.mixed_hubs = 30;
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
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

void WriteAll(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << data;
  ASSERT_TRUE(out.good());
}

class DirectoryIoTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    web::SyntheticWeb web = web::Synthesizer(SmallConfig()).Generate();
    Dataset dataset = std::move(BuildDataset(web)).value();
    pages_ = new FormPageSet(BuildFormPageSet(dataset));
    CafcChOptions options;
    options.min_hub_cardinality = 4;
    cluster::Clustering clustering =
        CafcCh(*pages_, web::kNumDomains, options);
    directory_ = new DatabaseDirectory(DatabaseDirectory::Build(
        *pages_, clustering,
        DatabaseDirectory::AutoLabels(*pages_, clustering)));
  }
  static void TearDownTestSuite() {
    delete directory_;
    delete pages_;
    directory_ = nullptr;
    pages_ = nullptr;
  }

  static FormPageSet* pages_;
  static DatabaseDirectory* directory_;
};

FormPageSet* DirectoryIoTest::pages_ = nullptr;
DatabaseDirectory* DirectoryIoTest::directory_ = nullptr;

TEST_F(DirectoryIoTest, FailedRewriteLeavesTheOldFileByteIdentical) {
  const std::string path = TempPath("io_durable.cafc");
  ASSERT_TRUE(directory_->SaveToFile(path).ok());
  const std::string before = ReadAll(path);
  ASSERT_FALSE(before.empty());

  // Occupy the staging path with a directory: the temp-file open fails,
  // so the rewrite never gets as far as touching the destination.
  const std::string tmp_path = path + ".tmp";
  ASSERT_EQ(::mkdir(tmp_path.c_str(), 0755), 0) << std::strerror(errno);
  Status status = directory_->SaveToFile(path);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(ReadAll(path), before);
  ASSERT_EQ(::rmdir(tmp_path.c_str()), 0);

  // With the staging path free again the same save succeeds.
  EXPECT_TRUE(directory_->SaveToFile(path).ok());
  std::remove(path.c_str());
}

TEST_F(DirectoryIoTest, SaveIntoMissingDirectoryFailsCleanly) {
  const std::string path =
      TempPath("no_such_subdir") + "/directory.cafc";
  Status status = directory_->SaveToFile(path);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  // Nothing was created at the destination.
  struct stat st;
  EXPECT_NE(::stat(path.c_str(), &st), 0);
}

TEST_F(DirectoryIoTest, ParseErrorsNameTheLineAndByteOffset) {
  const std::string path = TempPath("io_located.cafc");
  ASSERT_TRUE(directory_->SaveToFile(path).ok());
  std::string data = ReadAll(path);

  // Corrupt the stats keyword: the loader fails on line 4 and says so.
  const size_t stats_at = data.find("\nstats ");
  ASSERT_NE(stats_at, std::string::npos);
  std::string corrupted = data;
  corrupted[stats_at + 1] = 'z';
  WriteAll(path, corrupted);
  Result<DatabaseDirectory> loaded = DatabaseDirectory::LoadFromFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find(":line 4"), std::string::npos)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("(byte "), std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST_F(DirectoryIoTest, HeaderBitFlipIsRejectedAtLineOne) {
  const std::string path = TempPath("io_header.cafc");
  ASSERT_TRUE(directory_->SaveToFile(path).ok());
  std::string data = ReadAll(path);
  data[2] ^= 0x20;  // "CAFC-DIRECTORY" -> "CAfC-DIRECTORY"
  WriteAll(path, data);
  Result<DatabaseDirectory> loaded = DatabaseDirectory::LoadFromFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find(":line 1"), std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST_F(DirectoryIoTest, EveryTruncationPointReportsALocation) {
  const std::string path = TempPath("io_truncated.cafc");
  ASSERT_TRUE(directory_->SaveToFile(path).ok());
  const std::string data = ReadAll(path);
  ASSERT_GT(data.size(), 64u);

  for (const double fraction : {0.05, 0.25, 0.5, 0.75, 0.98}) {
    const size_t keep = static_cast<size_t>(data.size() * fraction);
    WriteAll(path, data.substr(0, keep));
    Result<DatabaseDirectory> loaded =
        DatabaseDirectory::LoadFromFile(path);
    ASSERT_FALSE(loaded.ok()) << "kept " << keep << " bytes";
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
    EXPECT_NE(loaded.status().message().find(":line "), std::string::npos)
        << "kept " << keep << ": " << loaded.status().ToString();
    EXPECT_NE(loaded.status().message().find("(byte "), std::string::npos)
        << "kept " << keep << ": " << loaded.status().ToString();
  }
  std::remove(path.c_str());
}

TEST_F(DirectoryIoTest, VersionOneFilesStillLoad) {
  // Version 1 had no epoch line and wrote labels raw. The reader must
  // negotiate the version from the header and parse accordingly.
  const std::string path = TempPath("io_v1.cafc");
  WriteAll(path,
           "CAFC-DIRECTORY 1\n"
           "weights 1 4 6 6 6\n"
           "stats 2 2 2\n"
           "job 2 1\n"
           "hotel 1 2\n"
           "entries 2\n"
           "label job listings\n"
           "members 1\n"
           "http://a.test/search\n"
           "pc 1\n"
           "0 0.5\n"
           "fc 1\n"
           "0 0.25\n"
           "label hotel rooms\n"
           "members 2\n"
           "http://b.test/form\n"
           "http://c.test/form\n"
           "pc 1\n"
           "1 0.75\n"
           "fc 2\n"
           "0 0.125\n"
           "1 1.5\n");
  Result<DatabaseDirectory> loaded = DatabaseDirectory::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->epoch(), 0u);
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ(loaded->entries()[0].label, "job listings");
  EXPECT_EQ(loaded->entries()[1].label, "hotel rooms");
  ASSERT_EQ(loaded->entries()[1].member_urls.size(), 2u);
  EXPECT_EQ(loaded->entries()[1].member_urls[1], "http://c.test/form");
  ASSERT_EQ(loaded->entries()[1].centroid.fc.size(), 2u);
  EXPECT_EQ(loaded->entries()[1].centroid.fc.entries()[1].weight, 1.5);
  std::remove(path.c_str());
}

TEST_F(DirectoryIoTest, VectorTermBeyondVocabularyIsLocatedCorruption) {
  const std::string path = TempPath("io_badterm.cafc");
  WriteAll(path,
           "CAFC-DIRECTORY 1\n"
           "weights 1 4 6 6 6\n"
           "stats 1 1 1\n"
           "job 1 1\n"
           "entries 1\n"
           "label jobs\n"
           "members 0\n"
           "pc 1\n"
           "7 0.5\n"
           "fc 0\n");
  Result<DatabaseDirectory> loaded = DatabaseDirectory::LoadFromFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("out of range"),
            std::string::npos)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find(":line "), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cafc
