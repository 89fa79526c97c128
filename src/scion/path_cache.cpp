#include "scion/path_cache.hpp"

#include <utility>

#include "obs/metrics.hpp"

namespace upin::scion {

using util::SimTime;
using util::Value;

namespace {

struct CacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& stale_served;
  obs::Counter& evictions;

  static CacheMetrics& get() {
    obs::Registry& registry = obs::Registry::global();
    static CacheMetrics metrics{
        registry.counter("upin_path_cache_hits_total"),
        registry.counter("upin_path_cache_misses_total"),
        registry.counter("upin_path_cache_stale_served_total"),
        registry.counter("upin_path_cache_evictions_total"),
    };
    return metrics;
  }
};

}  // namespace

PathCache::PathCache(PathCacheConfig config) : config_(config) {}

std::string PathCache::make_key(IsdAsn src, IsdAsn dst) {
  return src.to_string() + ">" + dst.to_string();
}

std::vector<Path> PathCache::flag_stale(std::vector<Path> paths) {
  for (Path& path : paths) path.set_status("stale");
  return paths;
}

void PathCache::touch(EntryList::iterator it) {
  entries_.splice(entries_.begin(), entries_, it);
}

void PathCache::evict_to_capacity() {
  while (index_.size() > config_.capacity && !entries_.empty()) {
    index_.erase(entries_.back().key);
    entries_.pop_back();
    ++stats_.evictions;
    CacheMetrics::get().evictions.add();
  }
}

void PathCache::refresh(Entry& entry, SimTime now, const Resolver& resolve) {
  entry.paths = resolve(entry.src, entry.dst);
  entry.resolved_at = now;
  entry.negative = entry.paths.empty();
  entry.dirty = false;
}

PathCacheLookup PathCache::lookup(IsdAsn src, IsdAsn dst, SimTime now,
                                  const Resolver& resolve,
                                  bool resolver_available) {
  PathCacheLookup result;
  if (!config_.enabled) {
    // Bypass mode: every lookup is a direct recombination.
    result.paths = resolve(src, dst);
    result.refreshed = true;
    return result;
  }
  CacheMetrics& metrics = CacheMetrics::get();
  const std::string key = make_key(src, dst);
  const auto found = index_.find(key);

  if (found == index_.end()) {
    ++stats_.misses;
    metrics.misses.add();
    if (!resolver_available) {
      // Nothing cached and no path server to ask: a hard miss.
      result.negative = true;
      return result;
    }
    entries_.push_front(Entry{key, src, dst, resolve(src, dst), now});
    Entry& entry = entries_.front();
    entry.negative = entry.paths.empty();
    index_[key] = entries_.begin();
    evict_to_capacity();
    result.paths = entry.paths;
    result.negative = entry.negative;
    result.refreshed = true;
    return result;
  }

  touch(found->second);
  Entry& entry = *found->second;
  const double age_s = util::to_seconds(now - entry.resolved_at);

  if (entry.negative) {
    if (age_s < config_.negative_ttl_s || !resolver_available) {
      ++stats_.hits;
      ++stats_.negative_hits;
      metrics.hits.add();
      result.hit = true;
      result.negative = true;
      return result;
    }
    ++stats_.misses;
    metrics.misses.add();
    refresh(entry, now, resolve);
    result.paths = entry.paths;
    result.negative = entry.negative;
    result.refreshed = true;
    return result;
  }

  if (entry.dirty) {
    if (resolver_available) {
      // A revocation touched this entry; re-resolve before serving.
      ++stats_.misses;
      metrics.misses.add();
      refresh(entry, now, resolve);
      result.paths = entry.paths;
      result.negative = entry.negative;
      result.refreshed = true;
      return result;
    }
    ++stats_.stale_served;
    metrics.stale_served.add();
    result.paths = flag_stale(entry.paths);
    result.hit = true;
    result.stale = true;
    return result;
  }

  if (age_s < config_.ttl_s) {
    ++stats_.hits;
    metrics.hits.add();
    result.paths = entry.paths;
    result.hit = true;
    return result;
  }

  if (age_s < config_.ttl_s + config_.stale_serve_s || !resolver_available) {
    // Stale-while-revalidate: answer with the old paths now, refresh the
    // entry so the next caller gets a fresh one.  With the resolver down
    // the grace window is unbounded — stale beats unreachable.
    ++stats_.stale_served;
    metrics.stale_served.add();
    result.paths = flag_stale(entry.paths);
    result.hit = true;
    result.stale = true;
    if (resolver_available) {
      refresh(entry, now, resolve);
      result.refreshed = true;
    }
    return result;
  }

  // Too stale even for the grace window: a plain refresh.
  ++stats_.misses;
  metrics.misses.add();
  refresh(entry, now, resolve);
  result.paths = entry.paths;
  result.negative = entry.negative;
  result.refreshed = true;
  return result;
}

std::size_t PathCache::invalidate_if(
    const std::function<bool(const Path&)>& covered) {
  std::size_t marked = 0;
  for (Entry& entry : entries_) {
    if (entry.dirty || entry.negative) continue;
    for (const Path& path : entry.paths) {
      if (covered(path)) {
        entry.dirty = true;
        ++marked;
        ++stats_.invalidations;
        break;
      }
    }
  }
  return marked;
}

void PathCache::clear() {
  entries_.clear();
  index_.clear();
}

Value PathCache::snapshot() const {
  // Built by moving each value into place: `Value::object({...})` would
  // deep-copy every nested array out of its const initializer list.
  Value::Array entries;
  entries.reserve(entries_.size());
  for (const Entry& entry : entries_) {  // front-to-back == LRU order
    Value::Array paths;
    paths.reserve(entry.paths.size());
    for (const Path& path : entry.paths) {
      util::JsonObject encoded;
      encoded.set("sequence", path.sequence());
      encoded.set("mtu", path.mtu());
      encoded.set("static_latency_ns", path.static_latency().count());
      encoded.set("created_at_ns", path.created_at().count());
      encoded.set("expires_at_ns", path.expires_at().count());
      encoded.set("status", path.status());
      paths.emplace_back(std::move(encoded));
    }
    util::JsonObject encoded;
    encoded.set("src", entry.src.to_string());
    encoded.set("dst", entry.dst.to_string());
    encoded.set("resolved_at_ns", entry.resolved_at.count());
    encoded.set("negative", entry.negative);
    encoded.set("dirty", entry.dirty);
    encoded.set("paths", std::move(paths));
    entries.emplace_back(std::move(encoded));
  }
  util::JsonObject snapshot;
  snapshot.set("entries", std::move(entries));
  return Value(std::move(snapshot));
}

util::Status PathCache::restore(const Value& value) {
  const Value* entries = value.get("entries");
  if (entries == nullptr || !entries->is_array()) {
    return util::Status(util::ErrorCode::kParseError,
                        "path cache snapshot: missing entries array");
  }
  clear();
  // Iterate the snapshot back-to-front and push_front, so the serialized
  // LRU order (front = most recent) is reproduced exactly.
  const Value::Array& list = entries->as_array();
  for (auto it = list.rbegin(); it != list.rend(); ++it) {
    const Value& item = *it;
    const Value* src_text = item.get("src");
    const Value* dst_text = item.get("dst");
    const Value* resolved_at = item.get("resolved_at_ns");
    const Value* paths = item.get("paths");
    if (src_text == nullptr || dst_text == nullptr || resolved_at == nullptr ||
        paths == nullptr || !paths->is_array()) {
      return util::Status(util::ErrorCode::kParseError,
                          "path cache snapshot: malformed entry");
    }
    const util::Result<IsdAsn> src = IsdAsn::parse(src_text->as_string());
    const util::Result<IsdAsn> dst = IsdAsn::parse(dst_text->as_string());
    if (!src.ok()) return util::Status(src.error());
    if (!dst.ok()) return util::Status(dst.error());

    Entry entry;
    entry.src = src.value();
    entry.dst = dst.value();
    entry.key = make_key(entry.src, entry.dst);
    entry.resolved_at = SimTime(util::SimDuration(resolved_at->as_int()));
    const Value* negative = item.get("negative");
    const Value* dirty = item.get("dirty");
    entry.negative = negative != nullptr && negative->as_bool();
    entry.dirty = dirty != nullptr && dirty->as_bool();
    for (const Value& encoded : paths->as_array()) {
      const Value* sequence = encoded.get("sequence");
      if (sequence == nullptr) {
        return util::Status(util::ErrorCode::kParseError,
                            "path cache snapshot: path without sequence");
      }
      util::Result<Path> parsed = Path::parse_sequence(sequence->as_string());
      if (!parsed.ok()) return util::Status(parsed.error());
      const Value* mtu = encoded.get("mtu");
      const Value* latency = encoded.get("static_latency_ns");
      const Value* created = encoded.get("created_at_ns");
      const Value* expires = encoded.get("expires_at_ns");
      const Value* status = encoded.get("status");
      Path path(parsed.value().hops(),
                mtu != nullptr ? mtu->as_double() : 0.0,
                util::SimDuration(latency != nullptr ? latency->as_int() : 0));
      path.set_lifetime(
          SimTime(util::SimDuration(created != nullptr ? created->as_int() : 0)),
          SimTime(util::SimDuration(expires != nullptr ? expires->as_int() : 0)));
      if (status != nullptr) path.set_status(status->as_string());
      entry.paths.push_back(std::move(path));
    }
    entries_.push_front(std::move(entry));
    index_[entries_.front().key] = entries_.begin();
  }
  evict_to_capacity();
  return util::Status::success();
}

}  // namespace upin::scion
