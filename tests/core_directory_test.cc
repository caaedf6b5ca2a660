#include "core/directory.h"

#include <cstdio>
#include <string>
#include <type_traits>

#include <gtest/gtest.h>

#include "core/cafc.h"
#include "core/dataset.h"
#include "web/synthesizer.h"
#include "test_util.h"

namespace cafc {
namespace {

// A directory owns the collection vocabulary and statistics; a copy would
// silently fork that state. Only moves are allowed.
static_assert(!std::is_copy_constructible_v<DatabaseDirectory>);
static_assert(!std::is_copy_assignable_v<DatabaseDirectory>);
static_assert(std::is_move_constructible_v<DatabaseDirectory>);
static_assert(std::is_move_assignable_v<DatabaseDirectory>);

web::SynthesizerConfig SmallConfig() {
  web::SynthesizerConfig config;
  config.seed = 55;
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

class DirectoryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    web::SyntheticWeb web = web::Synthesizer(SmallConfig()).Generate();
    dataset_ = new Dataset(std::move(BuildDataset(web)).value());
    pages_ = new FormPageSet(BuildFormPageSet(*dataset_));
    CafcChOptions options;
    options.min_hub_cardinality = 4;
    clustering_ = new cluster::Clustering(
        CafcCh(*pages_, web::kNumDomains, options));
    directory_ = new DatabaseDirectory(DatabaseDirectory::Build(
        *pages_, *clustering_,
        DatabaseDirectory::AutoLabels(*pages_, *clustering_)));
  }
  static void TearDownTestSuite() {
    delete directory_;
    delete clustering_;
    delete pages_;
    delete dataset_;
    directory_ = nullptr;
    clustering_ = nullptr;
    pages_ = nullptr;
    dataset_ = nullptr;
  }

  static Dataset* dataset_;
  static FormPageSet* pages_;
  static cluster::Clustering* clustering_;
  static DatabaseDirectory* directory_;
};

Dataset* DirectoryTest::dataset_ = nullptr;
FormPageSet* DirectoryTest::pages_ = nullptr;
cluster::Clustering* DirectoryTest::clustering_ = nullptr;
DatabaseDirectory* DirectoryTest::directory_ = nullptr;

TEST_F(DirectoryTest, EntriesCoverAllPages) {
  size_t total = 0;
  for (const DirectoryEntry& e : directory_->entries()) {
    EXPECT_FALSE(e.label.empty());
    EXPECT_FALSE(e.member_urls.empty());
    total += e.member_urls.size();
  }
  EXPECT_EQ(total, pages_->size());
}

TEST_F(DirectoryTest, AutoLabelsAreDomainWords) {
  // At least one entry label should contain a recognizable domain stem.
  bool any = false;
  for (const DirectoryEntry& e : directory_->entries()) {
    for (const char* stem : {"job", "hotel", "flight", "music", "movi",
                             "book", "car", "rental", "auto"}) {
      if (e.label.find(stem) != std::string::npos) any = true;
    }
  }
  EXPECT_TRUE(any);
}

TEST_F(DirectoryTest, ClassifyPageFilesMembersIntoTheirOwnEntry) {
  // Every training page must classify into the entry that lists it.
  size_t correct = 0;
  for (size_t i = 0; i < pages_->size(); ++i) {
    DatabaseDirectory::Classification verdict =
        directory_->ClassifyPage(pages_->page(i));
    ASSERT_GE(verdict.entry, 0);
    const DirectoryEntry& entry =
        directory_->entries()[static_cast<size_t>(verdict.entry)];
    for (const std::string& url : entry.member_urls) {
      if (url == pages_->page(i).url) {
        ++correct;
        break;
      }
    }
  }
  // k-means convergence guarantees most points sit nearest their own
  // centroid (all, unless the run stopped on the 10% criterion).
  EXPECT_GE(correct * 10, pages_->size() * 9);
}

TEST_F(DirectoryTest, ClassifyDocumentMatchesClassifyPage) {
  DatabaseDirectory::Classification by_doc =
      directory_->ClassifyDocument(dataset_->entries[0].doc);
  DatabaseDirectory::Classification by_page =
      directory_->ClassifyPage(pages_->page(0));
  EXPECT_EQ(by_doc.entry, by_page.entry);
  EXPECT_NEAR(by_doc.similarity, by_page.similarity, 1e-9);
}

TEST_F(DirectoryTest, SaveLoadRoundTrip) {
  std::string path = TempPath("directory_roundtrip.cafc");
  ASSERT_TRUE(directory_->SaveToFile(path).ok());
  Result<DatabaseDirectory> loaded = DatabaseDirectory::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  ASSERT_EQ(loaded->size(), directory_->size());
  for (size_t i = 0; i < loaded->size(); ++i) {
    const DirectoryEntry& a = directory_->entries()[i];
    const DirectoryEntry& b = loaded->entries()[i];
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.member_urls, b.member_urls);
    EXPECT_EQ(a.centroid.pc.size(), b.centroid.pc.size());
    EXPECT_NEAR(a.centroid.pc.Norm(), b.centroid.pc.Norm(), 1e-9);
    EXPECT_NEAR(a.centroid.fc.Norm(), b.centroid.fc.Norm(), 1e-9);
  }

  // Classification through the loaded directory is identical, including
  // the re-weighting of raw documents (dictionary + IDF survived).
  for (size_t i = 0; i < 10 && i < dataset_->entries.size(); ++i) {
    DatabaseDirectory::Classification original =
        directory_->ClassifyDocument(dataset_->entries[i].doc);
    DatabaseDirectory::Classification reloaded =
        loaded->ClassifyDocument(dataset_->entries[i].doc);
    EXPECT_EQ(original.entry, reloaded.entry);
    EXPECT_NEAR(original.similarity, reloaded.similarity, 1e-9);
  }
  std::remove(path.c_str());
}

TEST_F(DirectoryTest, SaveLoadRoundTripsBitExact) {
  // Weighted directories must survive Save/Load *bit-exactly*: centroid
  // weights are TF×IDF products (irrational logs with all 52 mantissa bits
  // in play), so the previous 6-significant-digit serialization perturbed
  // every weight on reload and Classify similarities drifted. Non-default
  // LOC factors make the weights line part of the contract too.
  vsm::LocationWeightConfig weights;
  weights.page_title = 3;
  weights.anchor_text = 2;
  weights.form_text = 5;
  FormPageSet weighted = BuildFormPageSet(*dataset_, weights);
  DatabaseDirectory original = DatabaseDirectory::Build(
      weighted, *clustering_,
      DatabaseDirectory::AutoLabels(weighted, *clustering_));

  std::string path = TempPath("bit_exact_roundtrip.cafc");
  ASSERT_TRUE(original.SaveToFile(path).ok());
  Result<DatabaseDirectory> loaded = DatabaseDirectory::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::remove(path.c_str());

  ASSERT_EQ(loaded->size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    const DirectoryEntry& a = original.entries()[i];
    const DirectoryEntry& b = loaded->entries()[i];
    EXPECT_EQ(a.label, b.label) << "entry " << i;
    EXPECT_EQ(a.member_urls, b.member_urls) << "entry " << i;
    // Bit-exact centroids: same terms, same doubles (== on purpose).
    EXPECT_TRUE(a.centroid.pc == b.centroid.pc) << "pc centroid " << i;
    EXPECT_TRUE(a.centroid.fc == b.centroid.fc) << "fc centroid " << i;
  }

  // Classifying a raw document exercises the reloaded collection state
  // (vocabulary, IDF, LOC weights); similarities must be identical bits.
  for (size_t i = 0; i < dataset_->entries.size(); ++i) {
    DatabaseDirectory::Classification before =
        original.ClassifyDocument(dataset_->entries[i].doc);
    DatabaseDirectory::Classification after =
        loaded->ClassifyDocument(dataset_->entries[i].doc);
    EXPECT_EQ(before.entry, after.entry) << "doc " << i;
    EXPECT_EQ(before.similarity, after.similarity) << "doc " << i;  // exact
  }

  // Search goes through the same Eq. 1 weighting; exact as well.
  auto before = original.Search("job career hotel flight", 8);
  auto after = loaded->Search("job career hotel flight", 8);
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].entry, after[i].entry);
    EXPECT_EQ(before[i].similarity, after[i].similarity);
  }
}

TEST_F(DirectoryTest, CloneIsBitExactAndIndependent) {
  DatabaseDirectory clone = directory_->Clone();
  ASSERT_EQ(clone.size(), directory_->size());
  for (size_t i = 0; i < clone.size(); ++i) {
    const DirectoryEntry& a = directory_->entries()[i];
    const DirectoryEntry& b = clone.entries()[i];
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.member_urls, b.member_urls);
    EXPECT_TRUE(a.centroid.pc == b.centroid.pc);
    EXPECT_TRUE(a.centroid.fc == b.centroid.fc);
  }
  EXPECT_EQ(clone.epoch(), directory_->epoch());
  for (size_t i = 0; i < 10 && i < dataset_->entries.size(); ++i) {
    DatabaseDirectory::Classification a =
        directory_->ClassifyDocument(dataset_->entries[i].doc);
    DatabaseDirectory::Classification b =
        clone.ClassifyDocument(dataset_->entries[i].doc);
    EXPECT_EQ(a.entry, b.entry);
    EXPECT_EQ(a.similarity, b.similarity);  // exact
  }

  // Mutating the clone (filing a source moves its centroid) must leave the
  // original untouched — the clone owns its state.
  const forms::FormPageDocument& doc = dataset_->entries[0].doc;
  DatabaseDirectory::Classification filed = clone.AddSource(doc);
  ASSERT_GE(filed.entry, 0);
  const size_t e = static_cast<size_t>(filed.entry);
  EXPECT_EQ(clone.entries()[e].member_urls.size(),
            directory_->entries()[e].member_urls.size() + 1);
  EXPECT_FALSE(clone.entries()[e].centroid.pc ==
               directory_->entries()[e].centroid.pc);
}

TEST_F(DirectoryTest, AdversarialLabelsSurviveRoundTrip) {
  // Labels are free text: embedded newlines, the member-list separator,
  // leading/trailing whitespace and non-ASCII bytes must all round-trip
  // through the escaped v2 format.
  std::vector<std::string> labels;
  const std::vector<std::string> adversarial = {
      "jobs\nand careers",        // embedded newline (v1 format breaker)
      "hotels, rooms, suites",    // commas like the member separator
      "  padded  ",               // leading/trailing spaces
      "caf\xc3\xa9 m\xc3\xbasica",  // UTF-8 bytes
      "back\\slash\rreturn",      // escape char + carriage return
  };
  for (size_t c = 0; c < static_cast<size_t>(clustering_->num_clusters);
       ++c) {
    labels.push_back(adversarial[c % adversarial.size()]);
  }
  DatabaseDirectory hostile =
      DatabaseDirectory::Build(*pages_, *clustering_, labels);

  std::string path = TempPath("adversarial_labels.cafc");
  ASSERT_TRUE(hostile.SaveToFile(path).ok());
  Result<DatabaseDirectory> loaded = DatabaseDirectory::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  ASSERT_EQ(loaded->size(), hostile.size());
  for (size_t i = 0; i < hostile.size(); ++i) {
    EXPECT_EQ(loaded->entries()[i].label, hostile.entries()[i].label) << i;
    EXPECT_EQ(loaded->entries()[i].member_urls,
              hostile.entries()[i].member_urls);
  }
  // Classification through the reloaded directory is unchanged — labels
  // never leak into vectors or statistics.
  for (size_t i = 0; i < 10 && i < dataset_->entries.size(); ++i) {
    DatabaseDirectory::Classification original =
        hostile.ClassifyDocument(dataset_->entries[i].doc);
    DatabaseDirectory::Classification reloaded =
        loaded->ClassifyDocument(dataset_->entries[i].doc);
    EXPECT_EQ(original.entry, reloaded.entry);
    EXPECT_NEAR(original.similarity, reloaded.similarity, 1e-9);
  }
  std::remove(path.c_str());
}

TEST_F(DirectoryTest, EpochSurvivesRoundTrip) {
  // The fixture directory was built from a plain FormPageSet: epoch 0.
  EXPECT_EQ(directory_->epoch(), 0u);
  std::string path = TempPath("epoch_roundtrip.cafc");
  ASSERT_TRUE(directory_->SaveToFile(path).ok());
  Result<DatabaseDirectory> loaded = DatabaseDirectory::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->epoch(), directory_->epoch());
  std::remove(path.c_str());
}

TEST_F(DirectoryTest, LoadRejectsGarbage) {
  std::string path = TempPath("garbage.cafc");
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("definitely not a directory\n", f);
    fclose(f);
  }
  Result<DatabaseDirectory> loaded = DatabaseDirectory::LoadFromFile(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  std::remove(path.c_str());
}

TEST_F(DirectoryTest, LoadRejectsMissingFile) {
  Result<DatabaseDirectory> loaded =
      DatabaseDirectory::LoadFromFile("/nonexistent/nope.cafc");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST_F(DirectoryTest, LoadRejectsTruncatedFile) {
  std::string full = TempPath("full.cafc");
  ASSERT_TRUE(directory_->SaveToFile(full).ok());
  // Truncate to half size.
  std::string truncated = TempPath("truncated.cafc");
  {
    FILE* in = fopen(full.c_str(), "rb");
    ASSERT_NE(in, nullptr);
    fseek(in, 0, SEEK_END);
    long size = ftell(in);
    fseek(in, 0, SEEK_SET);
    std::string data(static_cast<size_t>(size / 2), '\0');
    ASSERT_EQ(fread(data.data(), 1, data.size(), in), data.size());
    fclose(in);
    FILE* out = fopen(truncated.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    fwrite(data.data(), 1, data.size(), out);
    fclose(out);
  }
  Result<DatabaseDirectory> loaded =
      DatabaseDirectory::LoadFromFile(truncated);
  EXPECT_FALSE(loaded.ok());
  std::remove(full.c_str());
  std::remove(truncated.c_str());
}

TEST_F(DirectoryTest, SearchFindsTheRightSection) {
  // Query with unmistakable domain vocabulary; the top hit's entry must be
  // the cluster dominated by that domain.
  auto top_entry_gold = [this](const char* query) {
    auto hits = directory_->Search(query, 1);
    if (hits.empty()) return -1;
    // Majority gold of the hit entry's members.
    const DirectoryEntry& entry =
        directory_->entries()[static_cast<size_t>(hits[0].entry)];
    std::vector<int> votes(web::kNumDomains, 0);
    for (const std::string& url : entry.member_urls) {
      for (const DatasetEntry& e : dataset_->entries) {
        if (e.doc.url == url) {
          ++votes[static_cast<size_t>(e.gold)];
          break;
        }
      }
    }
    int best = 0;
    for (int d = 1; d < web::kNumDomains; ++d) {
      if (votes[static_cast<size_t>(d)] > votes[static_cast<size_t>(best)]) {
        best = d;
      }
    }
    return best;
  };
  EXPECT_EQ(top_entry_gold("job career resume employment"),
            static_cast<int>(web::Domain::kJob));
  EXPECT_EQ(top_entry_gold("hotel rooms reservation"),
            static_cast<int>(web::Domain::kHotel));
  EXPECT_EQ(top_entry_gold("cheap flights airline tickets"),
            static_cast<int>(web::Domain::kAirfare));
}

TEST_F(DirectoryTest, SearchRespectsTopK) {
  auto hits = directory_->Search("search databases online", 3);
  EXPECT_LE(hits.size(), 3u);
  for (size_t i = 1; i < hits.size(); ++i) {
    EXPECT_GE(hits[i - 1].similarity, hits[i].similarity);
  }
}

TEST_F(DirectoryTest, SearchUnknownTermsYieldNothing) {
  EXPECT_TRUE(directory_->Search("zzzzqqqq xxxyyy", 5).empty());
}

TEST_F(DirectoryTest, SearchSurvivesRoundTrip) {
  std::string path = TempPath("search_roundtrip.cafc");
  ASSERT_TRUE(directory_->SaveToFile(path).ok());
  Result<DatabaseDirectory> loaded = DatabaseDirectory::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  auto before = directory_->Search("job career", 2);
  auto after = loaded->Search("job career", 2);
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].entry, after[i].entry);
    EXPECT_NEAR(before[i].similarity, after[i].similarity, 1e-9);
  }
  std::remove(path.c_str());
}

TEST_F(DirectoryTest, AddSourceUpdatesCentroidAndMembers) {
  // Work on a private copy so other tests see the shared fixture intact.
  std::string path = TempPath("addsource.cafc");
  ASSERT_TRUE(directory_->SaveToFile(path).ok());
  Result<DatabaseDirectory> copy = DatabaseDirectory::LoadFromFile(path);
  ASSERT_TRUE(copy.ok());
  std::remove(path.c_str());

  const forms::FormPageDocument& doc = dataset_->entries[0].doc;
  DatabaseDirectory::Classification before = copy->ClassifyDocument(doc);
  size_t members_before =
      copy->entries()[static_cast<size_t>(before.entry)].member_urls.size();
  double norm_before = copy->entries()[static_cast<size_t>(before.entry)]
                           .centroid.pc.Norm();

  DatabaseDirectory::Classification filed = copy->AddSource(doc);
  EXPECT_EQ(filed.entry, before.entry);
  const DirectoryEntry& entry =
      copy->entries()[static_cast<size_t>(filed.entry)];
  EXPECT_EQ(entry.member_urls.size(), members_before + 1);
  EXPECT_EQ(entry.member_urls.back(), doc.url);
  // Centroid changed (running mean with one more vector).
  EXPECT_NE(entry.centroid.pc.Norm(), norm_before);

  // The newly filed source still classifies into the same entry.
  EXPECT_EQ(copy->ClassifyDocument(doc).entry, filed.entry);
}

TEST_F(DirectoryTest, AddSourceRunningMeanMatchesBatchMean) {
  // Adding a member twice: centroid must equal (n*c + 2v) / (n+2) — check
  // against a hand-computed running mean on a tiny directory.
  std::string path = TempPath("addsource_mean.cafc");
  ASSERT_TRUE(directory_->SaveToFile(path).ok());
  Result<DatabaseDirectory> copy = DatabaseDirectory::LoadFromFile(path);
  ASSERT_TRUE(copy.ok());
  std::remove(path.c_str());

  const forms::FormPageDocument& doc = dataset_->entries[1].doc;
  DatabaseDirectory::Classification first = copy->AddSource(doc);
  ASSERT_GE(first.entry, 0);
  // Filing the same document again: similarity to its section must not
  // decrease (the centroid moved toward it).
  DatabaseDirectory::Classification second = copy->ClassifyDocument(doc);
  EXPECT_EQ(second.entry, first.entry);
  EXPECT_GE(second.similarity, first.similarity - 1e-9);
}

TEST_F(DirectoryTest, AddSourceSurvivesSaveLoad) {
  std::string path = TempPath("addsource_save.cafc");
  ASSERT_TRUE(directory_->SaveToFile(path).ok());
  Result<DatabaseDirectory> copy = DatabaseDirectory::LoadFromFile(path);
  ASSERT_TRUE(copy.ok());

  const forms::FormPageDocument& doc = dataset_->entries[2].doc;
  DatabaseDirectory::Classification filed = copy->AddSource(doc);
  ASSERT_GE(filed.entry, 0);
  ASSERT_TRUE(copy->SaveToFile(path).ok());

  Result<DatabaseDirectory> reloaded = DatabaseDirectory::LoadFromFile(path);
  ASSERT_TRUE(reloaded.ok());
  const DirectoryEntry& entry =
      reloaded->entries()[static_cast<size_t>(filed.entry)];
  EXPECT_EQ(entry.member_urls.back(), doc.url);
  EXPECT_EQ(reloaded->ClassifyDocument(doc).entry, filed.entry);
  std::remove(path.c_str());
}

TEST_F(DirectoryTest, AddSourceOnEmptyDirectoryIsNoop) {
  DatabaseDirectory empty;
  forms::FormPageDocument doc;
  doc.url = "http://x.com/";
  EXPECT_EQ(empty.AddSource(doc).entry, -1);
  EXPECT_EQ(empty.size(), 0u);
}

TEST_F(DirectoryTest, EmptyDirectoryClassifiesToNothing) {
  DatabaseDirectory empty;
  DatabaseDirectory::Classification verdict =
      empty.ClassifyPage(pages_->page(0));
  EXPECT_EQ(verdict.entry, -1);
}

TEST_F(DirectoryTest, GoldAccuracyOfDirectoryClassification) {
  // Classify every training document; majority-label the entries by gold
  // and measure accuracy — this is the §5 automation claim.
  std::vector<int> entry_label(directory_->size(), -1);
  {
    std::vector<std::vector<int>> votes(
        directory_->size(), std::vector<int>(web::kNumDomains, 0));
    for (size_t i = 0; i < dataset_->entries.size(); ++i) {
      DatabaseDirectory::Classification v =
          directory_->ClassifyPage(pages_->page(i));
      ++votes[static_cast<size_t>(v.entry)]
             [static_cast<size_t>(dataset_->entries[i].gold)];
    }
    for (size_t e = 0; e < directory_->size(); ++e) {
      int best = 0;
      for (int d = 1; d < web::kNumDomains; ++d) {
        if (votes[e][static_cast<size_t>(d)] >
            votes[e][static_cast<size_t>(best)]) {
          best = d;
        }
      }
      entry_label[e] = best;
    }
  }
  size_t correct = 0;
  for (size_t i = 0; i < dataset_->entries.size(); ++i) {
    DatabaseDirectory::Classification v =
        directory_->ClassifyDocument(dataset_->entries[i].doc);
    if (entry_label[static_cast<size_t>(v.entry)] ==
        dataset_->entries[i].gold) {
      ++correct;
    }
  }
  EXPECT_GE(correct * 10, dataset_->entries.size() * 8);  // >= 80%
}

}  // namespace
}  // namespace cafc
