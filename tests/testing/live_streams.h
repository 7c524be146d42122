// Names of a log's live, non-empty streams, for tests that compare them as strings.

#ifndef HALFMOON_TESTS_TESTING_LIVE_STREAMS_H_
#define HALFMOON_TESTS_TESTING_LIVE_STREAMS_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/sharedlog/sharded_log.h"

namespace halfmoon::testing {

// LiveTagsWithPrefix(prefix), mapped to names (so in name order).
inline std::vector<std::string> LiveStreamNames(const sharedlog::ShardedLog& log,
                                                std::string_view prefix) {
  std::vector<std::string> names;
  for (sharedlog::TagId tag : log.LiveTagsWithPrefix(prefix)) {
    names.push_back(log.tags().Name(tag));
  }
  return names;
}

}  // namespace halfmoon::testing

#endif  // HALFMOON_TESTS_TESTING_LIVE_STREAMS_H_
