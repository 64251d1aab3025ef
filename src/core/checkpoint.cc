// Checkpoint save/restore for Disc. The persisted state is exactly what the
// algorithm needs across slides: per-point coordinates, density, previous
// core status, category, and cluster handle, plus the cluster registry. The
// spatial index and all per-update scratch fields are rebuilt/reset.
//
// Both operations return a Status whose message names the first thing that
// went wrong (bad magic, dims/eps/tau mismatch, truncation, corrupt
// record), so a multi-session host like DiscEngine can report which
// checkpoint failed to recover and why.

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "common/failpoint.h"
#include "core/disc.h"
#include "obs/log.h"

namespace disc {

namespace {

constexpr std::uint64_t kMagic = 0x44495343'43503031ULL;  // "DISCCP01"

// Every checkpoint failure funnels through here so the structured log
// stream carries the same message the Status does (one rate-limited site).
Status Fail(const std::string& message) {
  DISC_LOG(kError, "checkpoint.failed").Str("error", message);
  return Status::Error(message);
}

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

}  // namespace

Status Disc::SaveCheckpoint(std::ostream& out) const {
  DISC_FAILPOINT_STATUS("checkpoint.save.pre");
  WritePod(out, kMagic);
  WritePod(out, static_cast<std::uint32_t>(tree_.dims()));
  WritePod(out, config_.eps);
  WritePod(out, config_.tau);
  WritePod(out, static_cast<std::uint64_t>(records_.size()));
  // Serialize in the label column's ascending id order so identical
  // clusterer states produce byte-identical checkpoints regardless of
  // hash-table layout.
  for (PointId id : col_ids_) {
    const Record& rec = records_.at(id);
    // A fired short-write poisons `out` mid-record: everything emitted so
    // far stays on disk as a torn prefix, caught by the !out check below.
    DISC_FAILPOINT_STREAM("checkpoint.save.record", out);
    WritePod(out, id);
    out.write(reinterpret_cast<const char*>(rec.pt.x.data()),
              sizeof(double) * kMaxDims);
    WritePod(out, rec.n_eps);
    WritePod(out, static_cast<std::uint8_t>(rec.core_prev ? 1 : 0));
    WritePod(out, static_cast<std::uint8_t>(rec.category));
    WritePod(out, rec.cid);
  }
  if (!registry_.Save(out)) {
    return Fail("checkpoint save: cluster-registry write failed");
  }
  if (!out) {
    return Fail("checkpoint save: stream write failed");
  }
  return Status::Ok();
}

Status Disc::LoadCheckpoint(std::istream& in) {
  DISC_FAILPOINT_STATUS("checkpoint.load.pre");
  std::uint64_t magic = 0;
  std::uint32_t dims = 0;
  double eps = 0.0;
  std::uint32_t tau = 0;
  std::uint64_t count = 0;
  if (!ReadPod(in, &magic) || magic != kMagic) {
    return Fail("checkpoint load: bad magic (not a DISC checkpoint)");
  }
  if (!ReadPod(in, &dims) || dims != tree_.dims()) {
    std::ostringstream os;
    os << "checkpoint load: dims mismatch (checkpoint " << dims
       << ", clusterer " << tree_.dims() << ")";
    return Fail(os.str());
  }
  if (!ReadPod(in, &eps) || eps != config_.eps) {
    std::ostringstream os;
    os << "checkpoint load: eps mismatch (checkpoint " << eps
       << ", clusterer " << config_.eps << ")";
    return Fail(os.str());
  }
  if (!ReadPod(in, &tau) || tau != config_.tau) {
    std::ostringstream os;
    os << "checkpoint load: tau mismatch (checkpoint " << tau
       << ", clusterer " << config_.tau << ")";
    return Fail(os.str());
  }
  if (!ReadPod(in, &count)) {
    return Fail("checkpoint load: truncated header");
  }

  // `count` is untrusted until that many records have been read: reserve
  // at most kMaxUpFrontReserve, so a corrupt count fails as a truncated
  // record instead of as one huge allocation. Larger windows just grow.
  constexpr std::uint64_t kMaxUpFrontReserve = 1u << 16;
  const std::size_t reserve =
      static_cast<std::size_t>(std::min(count, kMaxUpFrontReserve));
  records_.clear();
  records_.reserve(reserve);
  std::vector<Point> points;
  points.reserve(reserve);
  for (std::uint64_t i = 0; i < count; ++i) {
    PointId id = 0;
    Record rec;
    std::uint8_t core_prev = 0;
    std::uint8_t category = 0;
    // Built only on failure; the success path never touches a stream.
    auto record_error = [&](const char* what) {
      std::ostringstream os;
      os << "checkpoint load: record " << i << " of " << count << ": " << what;
      return Fail(os.str());
    };
    if (!ReadPod(in, &id)) return record_error("truncated");
    in.read(reinterpret_cast<char*>(rec.pt.x.data()),
            sizeof(double) * kMaxDims);
    if (!in) return record_error("truncated coordinates");
    if (!ReadPod(in, &rec.n_eps)) return record_error("truncated");
    if (!ReadPod(in, &core_prev)) return record_error("truncated");
    if (!ReadPod(in, &category)) return record_error("truncated");
    if (!ReadPod(in, &rec.cid)) return record_error("truncated");
    if (category > static_cast<std::uint8_t>(Category::kNoise)) {
      return record_error("invalid category byte");
    }
    rec.pt.id = id;
    rec.pt.dims = dims;
    if (!IsValidPoint(rec.pt)) {
      return record_error("invalid point coordinates");
    }
    rec.core_prev = core_prev != 0;
    // `rec` is a by-value local: restoring persisted bytes into a copy is
    // not a clustering decision, and disc_lint v2's scope tracking knows
    // it (the v1 allow(label-choke-point) suppression is gone).
    rec.category = static_cast<Category>(category);
    points.push_back(rec.pt);
    if (!records_.emplace(id, rec).second) {
      return record_error("duplicate point id");
    }
  }
  if (!registry_.Load(in)) {
    return Fail("checkpoint load: corrupt cluster registry");
  }
  // Validate handles against the restored registry. Iterates the points in
  // file order (not the hash map) so the first reported offender is stable.
  for (const Point& pt : points) {
    const Record& rec = records_.at(pt.id);
    if (rec.cid != kNoiseCluster &&
        (rec.cid < 0 ||
         static_cast<std::size_t>(rec.cid) >= registry_.num_handles())) {
      std::ostringstream os;
      os << "checkpoint load: point " << pt.id << " references cluster handle "
         << rec.cid << " outside the restored registry";
      return Fail(os.str());
    }
  }

  // Rebuild the label column and the index; reset per-update scratch state.
  col_ids_.resize(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) col_ids_[i] = points[i].id;
  std::sort(col_ids_.begin(), col_ids_.end());
  col_categories_.resize(col_ids_.size());
  col_cids_.resize(col_ids_.size());
  for (std::size_t i = 0; i < col_ids_.size(); ++i) {
    const Record& rec = records_.at(col_ids_[i]);
    col_categories_[i] = rec.category;
    col_cids_[i] = rec.cid;
  }
  tree_.Clear();
  tree_.BulkLoad(std::move(points));
  events_.clear();
  metrics_.Reset();
  delta_ = UpdateDelta{};
  recheck_.clear();
  touched_.clear();
  update_serial_ = 0;
  search_serial_ = 0;
  return Status::Ok();
}

}  // namespace disc
