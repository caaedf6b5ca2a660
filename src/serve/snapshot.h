#ifndef CAFC_SERVE_SNAPSHOT_H_
#define CAFC_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <memory>

#include "core/directory.h"
#include "storage/reader.h"

namespace cafc::serve {

/// \brief An immutable, refcounted view of the directory at one publish
/// point — the unit of consistency of the serving layer.
///
/// The server publishes a snapshot by swapping a
/// `shared_ptr<const DirectorySnapshot>` under its queue lock; workers pin
/// the current snapshot at dequeue and execute the whole request against it, so every response
/// observes exactly one epoch — never a directory mid-refresh. Old
/// snapshots die when the last in-flight request holding them completes.
class DirectorySnapshot {
 public:
  /// Takes ownership of a frozen directory. `version` is the server's
  /// publish sequence number (1 = the directory the server was built
  /// with); `corpus_epoch` is the corpus epoch the directory reflects.
  DirectorySnapshot(DatabaseDirectory directory, uint64_t version,
                    uint64_t corpus_epoch);

  /// Mapped mode: the snapshot is a view over an mmapped binary v3 file.
  /// The thin directory and the centroid index live inside the
  /// MappedSnapshot (built once at Open); this wrapper only pins the
  /// refcount and carries the publish metadata. Queries run exactly as in
  /// the in-RAM mode — the indexed Classify/Search paths never read the
  /// centroid vectors the thin directory omits — and stored-page requests
  /// (QueryKind::kClassifyStored) reach the page LRU through `mapped()`.
  DirectorySnapshot(std::shared_ptr<const storage::MappedSnapshot> mapped,
                    uint64_t version);

  DirectorySnapshot(const DirectorySnapshot&) = delete;
  DirectorySnapshot& operator=(const DirectorySnapshot&) = delete;

  /// The frozen directory. Const access only — `DatabaseDirectory`'s const
  /// interface (ClassifyPage/ClassifyDocument/Search) is thread-safe, and
  /// immutability is what makes the refcounted share sound. In mapped mode
  /// this is the thin directory (empty centroid vectors) — sound because
  /// every query path the server executes goes through `index()`.
  const DatabaseDirectory& directory() const {
    return mapped_ ? mapped_->directory() : directory_;
  }

  /// The backing mapped snapshot, or nullptr for in-RAM snapshots.
  const storage::MappedSnapshot* mapped() const { return mapped_.get(); }

  /// Publish sequence number, starting at 1 and bumped by every refresh
  /// hot-swap. Strictly increasing across the server's lifetime.
  uint64_t version() const { return version_; }

  /// Corpus epoch the directory reflects (0 when the directory was built
  /// outside an epoch-versioned corpus).
  uint64_t corpus_epoch() const { return corpus_epoch_; }

  /// Inverted centroid index over the frozen entries, built once at
  /// publish time and shared immutably by every worker pinning this
  /// snapshot: queries score only the entries they share a term with
  /// instead of scanning all of them, with bit-identical results. In
  /// mapped mode the index was streamed out of the file at Open.
  const cluster::CentroidIndex& index() const {
    return mapped_ ? mapped_->index() : index_;
  }

 private:
  DatabaseDirectory directory_;
  cluster::CentroidIndex index_;
  std::shared_ptr<const storage::MappedSnapshot> mapped_;
  uint64_t version_ = 0;
  uint64_t corpus_epoch_ = 0;
};

/// How snapshots travel: pinned by workers, swapped by the refresh thread.
using SnapshotPtr = std::shared_ptr<const DirectorySnapshot>;

}  // namespace cafc::serve

#endif  // CAFC_SERVE_SNAPSHOT_H_
