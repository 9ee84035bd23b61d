#include "core/key_order.h"

#include <algorithm>
#include <numeric>

#include "util/thread_pool.h"
#include "util/timer.h"

namespace mergepurge {

namespace {

// Splitter candidates drawn per bucket: enough that a bucket's size
// strays little from n / num_buckets.
constexpr size_t kSamplesPerBucket = 32;

// A tuple to sort. `prefix` is the key's first 8 bytes, big-endian and
// zero-padded, so prefixes order like the keys' bytes; only tuples whose
// prefixes tie compare their full keys.
struct Entry {
  uint64_t prefix = 0;
  TupleId tid = 0;
};

uint64_t KeyPrefix(const std::string& key) {
  uint64_t prefix = 0;
  for (size_t i = 0; i < 8; ++i) {
    prefix <<= 8;
    if (i < key.size()) prefix |= static_cast<unsigned char>(key[i]);
  }
  return prefix;
}

}  // namespace

KeyOrder OrderByBuckets(const std::vector<std::string>& keys,
                        const std::vector<uint32_t>& bucket_of,
                        size_t num_buckets, size_t workers) {
  const size_t n = keys.size();
  KeyOrder sorted;
  Timer scatter;
  sorted.bounds.assign(num_buckets + 1, 0);
  for (uint32_t bucket : bucket_of) ++sorted.bounds[bucket + 1];
  for (size_t b = 1; b <= num_buckets; ++b) {
    sorted.bounds[b] += sorted.bounds[b - 1];
  }
  std::vector<size_t> next(sorted.bounds.begin(), sorted.bounds.end() - 1);
  std::vector<Entry> entries(n);
  for (size_t t = 0; t < n; ++t) {
    entries[next[bucket_of[t]]++] = {KeyPrefix(keys[t]),
                                     static_cast<TupleId>(t)};
  }
  sorted.busy_seconds = scatter.ElapsedSeconds();

  sorted.order.resize(n);
  const std::vector<size_t>& bounds = sorted.bounds;
  sorted.busy_seconds += ParallelFor(
      num_buckets, n < kParallelGrain ? 1 : workers,
      [&](size_t begin, size_t end) {
        for (size_t b = begin; b < end; ++b) {
          std::sort(entries.begin() + bounds[b],
                    entries.begin() + bounds[b + 1],
                    [&keys](const Entry& x, const Entry& y) {
                      if (x.prefix != y.prefix) return x.prefix < y.prefix;
                      return KeyTidLess(keys[x.tid], x.tid, keys[y.tid],
                                        y.tid);
                    });
          for (size_t i = bounds[b]; i < bounds[b + 1]; ++i) {
            sorted.order[i] = entries[i].tid;
          }
        }
      },
      /*grain=*/1);
  return sorted;
}

KeyOrder OrderByKeyRanges(const std::vector<std::string>& keys,
                          size_t num_buckets, size_t workers) {
  const size_t n = keys.size();
  num_buckets = std::max<size_t>(num_buckets, 1);
  Timer sampling;
  const size_t step =
      std::max<size_t>(1, n / (num_buckets * kSamplesPerBucket));
  std::vector<TupleId> sample;
  for (size_t t = 0; t < n; t += step) {
    sample.push_back(static_cast<TupleId>(t));
  }
  auto less = [&keys](TupleId a, TupleId b) {
    return KeyTidLess(keys[a], a, keys[b], b);
  };
  std::sort(sample.begin(), sample.end(), less);
  std::vector<TupleId> splitters;
  for (size_t i = 1; i < num_buckets && !sample.empty(); ++i) {
    splitters.push_back(sample[i * sample.size() / num_buckets]);
  }
  double busy = sampling.ElapsedSeconds();

  std::vector<uint32_t> bucket_of(n);
  busy += ParallelFor(n, workers, [&](size_t begin, size_t end) {
    for (size_t t = begin; t < end; ++t) {
      bucket_of[t] = static_cast<uint32_t>(
          std::upper_bound(splitters.begin(), splitters.end(),
                           static_cast<TupleId>(t), less) -
          splitters.begin());
    }
  });
  KeyOrder sorted = OrderByBuckets(keys, bucket_of, num_buckets, workers);
  sorted.busy_seconds += busy;
  return sorted;
}

size_t InsertionPoint(const std::vector<std::string>& keys,
                      const std::vector<TupleId>& order, std::string_view key,
                      TupleId tid) {
  return static_cast<size_t>(
      std::upper_bound(order.begin(), order.end(), tid,
                       [&](TupleId probe, TupleId t) {
                         return KeyTidLess(key, probe, keys[t], t);
                       }) -
      order.begin());
}

std::vector<size_t> InsertInOrder(const std::vector<std::string>& keys,
                                  TupleId first_new,
                                  std::vector<TupleId>* order) {
  std::vector<TupleId> fresh(keys.size() - first_new);
  std::iota(fresh.begin(), fresh.end(), first_new);
  std::sort(fresh.begin(), fresh.end(), [&keys](TupleId a, TupleId b) {
    return KeyTidLess(keys[a], a, keys[b], b);
  });
  // The insertion points ascend with the sorted fresh tuples.
  const size_t resident = order->size();
  std::vector<size_t> at(fresh.size());
  for (size_t k = 0; k < fresh.size(); ++k) {
    at[k] = InsertionPoint(keys, *order, keys[fresh[k]], fresh[k]);
  }
  // One backward pass: resident ids from at[k] up to the next insertion
  // point move up by k + 1, and fresh tuple k lands at at[k] + k.
  order->resize(resident + fresh.size());
  size_t end = resident;
  for (size_t k = fresh.size(); k-- > 0;) {
    std::move_backward(order->begin() + at[k], order->begin() + end,
                       order->begin() + end + k + 1);
    (*order)[at[k] + k] = fresh[k];
    end = at[k];
    at[k] += k;
  }
  return at;
}

}  // namespace mergepurge
