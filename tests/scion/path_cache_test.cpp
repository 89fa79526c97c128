// Tests for scion/path_cache: TTL, stale-while-revalidate, negative
// entries, LRU bounds, revocation-driven invalidation, and the by-key
// snapshot/restore behind crash-safe campaign resume.
#include "scion/path_cache.hpp"

#include <gtest/gtest.h>

#include "util/json.hpp"

namespace upin::scion {
namespace {

using util::SimTime;

Path make_path(std::uint64_t src, std::uint64_t mid, std::uint64_t dst) {
  std::vector<PathHop> hops{{IsdAsn{1, src}, 0, 1},
                            {IsdAsn{1, mid}, 1, 2},
                            {IsdAsn{1, dst}, 2, 0}};
  Path path(std::move(hops), 1400.0, util::sim_seconds(0.012));
  path.set_lifetime(SimTime::zero(), util::sim_seconds(21600.0));
  return path;
}

/// A counting resolver: answers with one fixed 3-hop path per pair.
struct CountingResolver {
  std::size_t calls = 0;
  std::vector<Path> answer = {make_path(1, 2, 3)};

  PathCache::Resolver fn() {
    return [this](IsdAsn, IsdAsn) {
      ++calls;
      return answer;
    };
  }
};

const IsdAsn kSrc{1, 1};
const IsdAsn kDst{1, 3};

TEST(PathCache, MissResolvesThenFreshLookupsHitWithoutResolving) {
  PathCache cache(PathCacheConfig{.ttl_s = 300.0});
  CountingResolver resolver;
  const PathCacheLookup first =
      cache.lookup(kSrc, kDst, SimTime::zero(), resolver.fn());
  EXPECT_FALSE(first.hit);
  EXPECT_TRUE(first.refreshed);
  ASSERT_EQ(first.paths.size(), 1u);
  EXPECT_EQ(resolver.calls, 1u);

  const PathCacheLookup second =
      cache.lookup(kSrc, kDst, util::sim_seconds(299.0), resolver.fn());
  EXPECT_TRUE(second.hit);
  EXPECT_FALSE(second.stale);
  EXPECT_FALSE(second.refreshed);
  EXPECT_EQ(second.paths, first.paths);
  EXPECT_EQ(resolver.calls, 1u) << "fresh hits must not touch the resolver";
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(PathCache, StaleWhileRevalidateServesOldPathsAndRefreshes) {
  PathCache cache(PathCacheConfig{.ttl_s = 300.0, .stale_serve_s = 60.0});
  CountingResolver resolver;
  (void)cache.lookup(kSrc, kDst, SimTime::zero(), resolver.fn());

  // Past TTL but inside the grace window: old answer, flagged stale,
  // plus a synchronous revalidation for the next caller.
  const PathCacheLookup stale =
      cache.lookup(kSrc, kDst, util::sim_seconds(301.0), resolver.fn());
  EXPECT_TRUE(stale.hit);
  EXPECT_TRUE(stale.stale);
  EXPECT_TRUE(stale.refreshed);
  ASSERT_EQ(stale.paths.size(), 1u);
  EXPECT_EQ(stale.paths[0].status(), "stale");
  EXPECT_EQ(resolver.calls, 2u);
  EXPECT_EQ(cache.stats().stale_served, 1u);

  // The revalidation reset the entry's clock: the next lookup is fresh.
  const PathCacheLookup after =
      cache.lookup(kSrc, kDst, util::sim_seconds(302.0), resolver.fn());
  EXPECT_TRUE(after.hit);
  EXPECT_FALSE(after.stale);
  EXPECT_EQ(after.paths[0].status(), "alive");
  EXPECT_EQ(resolver.calls, 2u);
}

TEST(PathCache, BeyondGraceWindowIsAPlainMissRefresh) {
  PathCache cache(PathCacheConfig{.ttl_s = 300.0, .stale_serve_s = 60.0});
  CountingResolver resolver;
  (void)cache.lookup(kSrc, kDst, SimTime::zero(), resolver.fn());
  const PathCacheLookup lookup =
      cache.lookup(kSrc, kDst, util::sim_seconds(361.0), resolver.fn());
  EXPECT_FALSE(lookup.hit);
  EXPECT_FALSE(lookup.stale);
  EXPECT_TRUE(lookup.refreshed);
  EXPECT_EQ(resolver.calls, 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(PathCache, EmptyAnswersAreCachedWithTheirOwnTtl) {
  PathCache cache(PathCacheConfig{.negative_ttl_s = 30.0});
  CountingResolver resolver;
  resolver.answer.clear();
  const PathCacheLookup first =
      cache.lookup(kSrc, kDst, SimTime::zero(), resolver.fn());
  EXPECT_TRUE(first.negative);
  EXPECT_TRUE(first.refreshed);
  EXPECT_TRUE(first.paths.empty());

  // Within the negative TTL the empty answer is served from the cache.
  const PathCacheLookup second =
      cache.lookup(kSrc, kDst, util::sim_seconds(29.0), resolver.fn());
  EXPECT_TRUE(second.hit);
  EXPECT_TRUE(second.negative);
  EXPECT_EQ(resolver.calls, 1u);
  EXPECT_EQ(cache.stats().negative_hits, 1u);

  // Past it, the pair is re-resolved — and paths may have appeared.
  resolver.answer = {make_path(1, 2, 3)};
  const PathCacheLookup third =
      cache.lookup(kSrc, kDst, util::sim_seconds(31.0), resolver.fn());
  EXPECT_TRUE(third.refreshed);
  EXPECT_FALSE(third.negative);
  ASSERT_EQ(third.paths.size(), 1u);
  EXPECT_EQ(resolver.calls, 2u);
}

TEST(PathCache, LruEvictionKeepsTheMostRecentlyUsedPairs) {
  PathCache cache(PathCacheConfig{.capacity = 2});
  CountingResolver resolver;
  const IsdAsn a{1, 10}, b{1, 11}, c{1, 12};
  (void)cache.lookup(kSrc, a, SimTime::zero(), resolver.fn());
  (void)cache.lookup(kSrc, b, util::sim_seconds(1.0), resolver.fn());
  // Touch (src, a) so (src, b) is the LRU victim.
  (void)cache.lookup(kSrc, a, util::sim_seconds(2.0), resolver.fn());
  (void)cache.lookup(kSrc, c, util::sim_seconds(3.0), resolver.fn());

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  const std::size_t calls_before = resolver.calls;
  EXPECT_TRUE(
      cache.lookup(kSrc, a, util::sim_seconds(4.0), resolver.fn()).hit);
  EXPECT_EQ(resolver.calls, calls_before) << "(src, a) must have survived";
  EXPECT_FALSE(
      cache.lookup(kSrc, b, util::sim_seconds(5.0), resolver.fn()).hit)
      << "(src, b) was the least recently used pair and must be gone";
}

TEST(PathCache, InvalidationDirtyMarksAndForcesReResolve) {
  PathCache cache(PathCacheConfig{});
  CountingResolver resolver;
  (void)cache.lookup(kSrc, kDst, SimTime::zero(), resolver.fn());

  const std::size_t marked = cache.invalidate_if(
      [](const Path& path) { return path.traverses(IsdAsn{1, 2}); });
  EXPECT_EQ(marked, 1u);
  EXPECT_EQ(cache.stats().invalidations, 1u);

  // Well within TTL, but dirty: the entry re-resolves before serving.
  const PathCacheLookup lookup =
      cache.lookup(kSrc, kDst, util::sim_seconds(1.0), resolver.fn());
  EXPECT_TRUE(lookup.refreshed);
  EXPECT_FALSE(lookup.stale);
  EXPECT_EQ(resolver.calls, 2u);
}

TEST(PathCache, DirtyEntryServedStaleWhenResolverUnavailable) {
  PathCache cache(PathCacheConfig{});
  CountingResolver resolver;
  (void)cache.lookup(kSrc, kDst, SimTime::zero(), resolver.fn());
  (void)cache.invalidate_if([](const Path&) { return true; });

  const PathCacheLookup lookup = cache.lookup(
      kSrc, kDst, util::sim_seconds(1.0), resolver.fn(), /*available=*/false);
  EXPECT_TRUE(lookup.hit);
  EXPECT_TRUE(lookup.stale);
  EXPECT_FALSE(lookup.refreshed);
  ASSERT_EQ(lookup.paths.size(), 1u);
  EXPECT_EQ(lookup.paths[0].status(), "stale");
  EXPECT_EQ(resolver.calls, 1u);
}

TEST(PathCache, ResolverDownServesStaleAtAnyAgeButHardMissesCold) {
  PathCache cache(PathCacheConfig{.ttl_s = 300.0, .stale_serve_s = 60.0});
  CountingResolver resolver;
  (void)cache.lookup(kSrc, kDst, SimTime::zero(), resolver.fn());

  // Far beyond TTL + grace: with the resolver down, stale beats a miss.
  const PathCacheLookup stale =
      cache.lookup(kSrc, kDst, util::sim_seconds(9000.0), resolver.fn(),
                   /*available=*/false);
  EXPECT_TRUE(stale.hit);
  EXPECT_TRUE(stale.stale);
  EXPECT_FALSE(stale.refreshed);
  EXPECT_EQ(resolver.calls, 1u);

  // A pair never seen before cannot degrade: hard miss, no resolve.
  const PathCacheLookup cold =
      cache.lookup(kSrc, IsdAsn{1, 99}, util::sim_seconds(9000.0),
                   resolver.fn(), /*available=*/false);
  EXPECT_FALSE(cold.hit);
  EXPECT_TRUE(cold.negative);
  EXPECT_TRUE(cold.paths.empty());
  EXPECT_EQ(resolver.calls, 1u);
}

TEST(PathCache, DisabledCacheBypassesToTheResolver) {
  PathCache cache(PathCacheConfig{.enabled = false});
  CountingResolver resolver;
  const PathCacheLookup lookup =
      cache.lookup(kSrc, kDst, SimTime::zero(), resolver.fn());
  EXPECT_FALSE(lookup.hit);
  EXPECT_TRUE(lookup.refreshed);
  EXPECT_EQ(lookup.paths.size(), 1u);
  (void)cache.lookup(kSrc, kDst, SimTime::zero(), resolver.fn());
  EXPECT_EQ(resolver.calls, 2u);
  EXPECT_EQ(cache.size(), 0u);
}

const IsdAsn kUnreachable{1, 7};

/// A resolver that is a pure function of the pair, as restore() requires:
/// nothing to kUnreachable, one 3-hop path via AS 1-2 to anywhere else.
struct PureResolver {
  std::size_t calls = 0;

  PathCache::Resolver fn() {
    return [this](IsdAsn src, IsdAsn dst) {
      ++calls;
      std::vector<Path> paths;
      if (dst != kUnreachable) {
        paths.push_back(make_path(src.asn(), 2, dst.asn()));
      }
      return paths;
    };
  }
};

/// A cache holding a dirty positive entry (kSrc, kDst), a negative entry
/// (kSrc, kUnreachable), and a clean positive entry (kSrc, 1-9) in front.
PathCache populated_cache(PureResolver& resolver) {
  PathCache cache(PathCacheConfig{.negative_ttl_s = 30.0});
  (void)cache.lookup(kSrc, kDst, util::sim_seconds(5.0), resolver.fn());
  (void)cache.lookup(kSrc, kUnreachable, util::sim_seconds(6.0),
                     resolver.fn());
  (void)cache.invalidate_if(
      [](const Path& path) { return path.traverses(IsdAsn{1, 3}); });
  (void)cache.lookup(kSrc, IsdAsn{1, 9}, util::sim_seconds(7.0),
                     resolver.fn());
  return cache;
}

TEST(PathCache, SnapshotRestoreRoundTripsObservableState) {
  PureResolver resolver;
  PathCache cache = populated_cache(resolver);
  const util::Value snapshot = cache.snapshot();
  for (const util::Value& entry : snapshot.get("entries")->as_array()) {
    EXPECT_EQ(entry.get("paths"), nullptr) << "paths are re-derived";
  }

  PathCache restored(cache.config());
  ASSERT_TRUE(restored.restore(snapshot, resolver.fn()).ok());
  EXPECT_EQ(restored.size(), cache.size());
  // The full observable state (entries, LRU order, timestamps, flags)
  // must survive the round trip bit-for-bit.
  EXPECT_EQ(restored.snapshot().dump(), snapshot.dump());

  // Behavioural equivalence: the dirty entry still re-resolves, the
  // negative entry still answers empty from the cache, the clean entry
  // hits with the re-derived paths.
  for (PathCache* side : {&cache, &restored}) {
    PureResolver after;
    const PathCacheLookup dirty =
        side->lookup(kSrc, kDst, util::sim_seconds(8.0), after.fn());
    EXPECT_TRUE(dirty.refreshed);
    EXPECT_EQ(after.calls, 1u);
    const PathCacheLookup negative =
        side->lookup(kSrc, kUnreachable, util::sim_seconds(9.0), after.fn());
    EXPECT_TRUE(negative.negative);
    EXPECT_TRUE(negative.hit);
    const PathCacheLookup clean =
        side->lookup(kSrc, IsdAsn{1, 9}, util::sim_seconds(10.0), after.fn());
    EXPECT_TRUE(clean.hit);
    EXPECT_EQ(clean.paths, std::vector<Path>{make_path(1, 2, 9)});
    EXPECT_EQ(after.calls, 1u);
  }
}

/// The by-content format older builds wrote: every path spelled out, plus
/// a `negative` flag.
util::Value by_content_snapshot(const PathCache& cache,
                                const PathCache::Resolver& resolve) {
  util::Value snapshot = cache.snapshot();
  for (util::Value& entry : snapshot.as_object().find("entries")->as_array()) {
    const IsdAsn src = IsdAsn::parse(entry.get("src")->as_string()).value();
    const IsdAsn dst = IsdAsn::parse(entry.get("dst")->as_string()).value();
    util::Value::Array paths;
    for (const Path& path : resolve(src, dst)) {
      paths.push_back(util::Value::object({
          {"sequence", path.sequence()},
          {"mtu", path.mtu()},
          {"static_latency_ns", path.static_latency().count()},
          {"created_at_ns", path.created_at().count()},
          {"expires_at_ns", path.expires_at().count()},
          {"status", path.status()},
      }));
    }
    entry["negative"] = paths.empty();
    entry["paths"] = std::move(paths);
  }
  return snapshot;
}

TEST(PathCache, RestoresByContentSnapshotsFromOlderBuilds) {
  PureResolver resolver;
  const PathCache cache = populated_cache(resolver);
  const util::Value current = cache.snapshot();
  const util::Value older = by_content_snapshot(cache, resolver.fn());
  ASSERT_NE(older.dump(), current.dump());

  PathCache from_current(cache.config());
  PathCache from_older(cache.config());
  ASSERT_TRUE(from_current.restore(current, resolver.fn()).ok());
  ASSERT_TRUE(from_older.restore(older, resolver.fn()).ok());
  EXPECT_EQ(from_older.snapshot().dump(), current.dump());

  for (const IsdAsn dst : {kDst, kUnreachable, IsdAsn{1, 9}}) {
    PureResolver a;
    PureResolver b;
    const PathCacheLookup want =
        from_current.lookup(kSrc, dst, util::sim_seconds(8.0), a.fn());
    const PathCacheLookup got =
        from_older.lookup(kSrc, dst, util::sim_seconds(8.0), b.fn());
    EXPECT_EQ(got.paths, want.paths) << dst.to_string();
    EXPECT_EQ(got.hit, want.hit) << dst.to_string();
    EXPECT_EQ(got.negative, want.negative) << dst.to_string();
    EXPECT_EQ(got.refreshed, want.refreshed) << dst.to_string();
    EXPECT_EQ(b.calls, a.calls) << dst.to_string();
  }
}

TEST(PathCache, RepeatedRestoreResolvesEachPairOnce) {
  PureResolver resolver;
  const util::Value snapshot = populated_cache(resolver).snapshot();
  PureResolver counted;
  PathCache restored(PathCacheConfig{.negative_ttl_s = 30.0});
  ASSERT_TRUE(restored.restore(snapshot, counted.fn()).ok());
  ASSERT_TRUE(restored.restore(snapshot, counted.fn()).ok());
  EXPECT_EQ(counted.calls, 3u) << "one resolve per pair across both restores";
  EXPECT_EQ(restored.snapshot().dump(), snapshot.dump());
}

TEST(PathCache, RestoreRejectsMalformedSnapshots) {
  PathCache cache;
  PureResolver resolver;
  EXPECT_FALSE(cache.restore(util::Value(), resolver.fn()).ok());
  EXPECT_FALSE(cache.restore(util::Value::object({}), resolver.fn()).ok());
}

TEST(PathCache, FailedRestoreLeavesTheCacheUntouched) {
  PureResolver resolver;
  PathCache cache = populated_cache(resolver);
  const std::string before = cache.snapshot().dump();

  const auto with_entries = [](util::Value::Array entries) {
    return util::Value::object({{"entries", std::move(entries)}});
  };
  const util::Value good = util::Value::object({{"src", "1-1"},
                                                {"dst", "1-4"},
                                                {"resolved_at_ns", 0},
                                                {"dirty", false}});
  util::Value wrong_src = good;
  wrong_src["src"] = 11;
  util::Value wrong_time = good;
  wrong_time["resolved_at_ns"] = "soon";
  const util::Value malformed = util::Value::object({{"src", "1-1"}});

  // Entries are parsed back to front: {malformed, good} and the duplicate
  // fail after a valid entry was already taken.
  for (const util::Value& snapshot :
       {with_entries({wrong_src}), with_entries({wrong_time}),
        with_entries({good, malformed}), with_entries({malformed, good}),
        with_entries({good, good})}) {
    EXPECT_FALSE(cache.restore(snapshot, resolver.fn()).ok())
        << snapshot.dump();
    EXPECT_EQ(cache.snapshot().dump(), before) << snapshot.dump();
  }
  EXPECT_TRUE(cache.restore(with_entries({good}), resolver.fn()).ok());
  EXPECT_EQ(cache.size(), 1u);
}

}  // namespace
}  // namespace upin::scion
