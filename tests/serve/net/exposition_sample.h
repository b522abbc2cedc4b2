// Test helper: reads one sample out of METRICS exposition text
// (docs/observability.md), shared by the serve_net suites that check
// serving counts through the wire.
#ifndef PTUCKER_TESTS_SERVE_NET_EXPOSITION_SAMPLE_H_
#define PTUCKER_TESTS_SERVE_NET_EXPOSITION_SAMPLE_H_

#include <string>

namespace ptucker {

// First sample value for an exact metric name (skips _bucket/_sum lines
// and the # HELP/# TYPE comments).
inline bool FindSample(const std::string& exposition, const std::string& name,
                       long long* value) {
  std::size_t pos = 0;
  while (pos < exposition.size()) {
    std::size_t end = exposition.find('\n', pos);
    if (end == std::string::npos) end = exposition.size();
    const std::string line = exposition.substr(pos, end - pos);
    pos = end + 1;
    if (line.compare(0, name.size(), name) != 0) continue;
    if (line.size() <= name.size() || line[name.size()] != ' ') continue;
    *value = std::stoll(line.substr(name.size() + 1));
    return true;
  }
  return false;
}

}  // namespace ptucker

#endif  // PTUCKER_TESTS_SERVE_NET_EXPOSITION_SAMPLE_H_
