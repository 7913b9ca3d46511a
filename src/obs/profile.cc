#include "obs/profile.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "obs/metrics.h"

namespace gdms::obs {

namespace {

std::string FormatMs(int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3fms", static_cast<double>(ns) / 1e6);
  return buf;
}

std::string FormatAttr(double v) {
  char buf[32];
  // Counts render without a fraction; timings keep one decimal.
  if (v == static_cast<double>(static_cast<int64_t>(v))) {
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(static_cast<int64_t>(v)));
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f", v);
  }
  return buf;
}

}  // namespace

Profile::Profile(std::vector<SpanRecord> spans) : spans_(std::move(spans)) {
  std::unordered_map<uint64_t, size_t> by_id;
  nodes_.resize(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    nodes_[i].rec = &spans_[i];
    by_id[spans_[i].id] = i;
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto it = by_id.find(spans_[i].parent);
    if (it == by_id.end()) {
      roots_.push_back(i);
      total_ns_ += spans_[i].duration_ns;
    } else {
      nodes_[it->second].children.push_back(i);
    }
  }
  for (auto& node : nodes_) {
    std::sort(node.children.begin(), node.children.end(),
              [this](size_t a, size_t b) {
                return nodes_[a].rec->start_ns < nodes_[b].rec->start_ns;
              });
    int64_t covered = 0;
    for (size_t c : node.children) covered += nodes_[c].rec->duration_ns;
    node.self_ns = std::max<int64_t>(0, node.rec->duration_ns - covered);
  }
}

std::string Profile::RenderTree() const {
  std::string out;
  // Recursive render with box-drawing rails; `prefix` carries the rails of
  // the enclosing levels.
  auto render = [&](auto&& self, size_t ni, const std::string& prefix,
                    bool last, bool root) -> void {
    const Node& node = nodes_[ni];
    const SpanRecord& rec = *node.rec;
    std::string line = prefix;
    if (!root) line += last ? "└─ " : "├─ ";
    line += rec.name;
    if (rec.category != "operator" && rec.category != "query") {
      line += " [" + rec.category + "]";
    }
    char timing[96];
    double self_pct =
        rec.duration_ns > 0
            ? 100.0 * static_cast<double>(node.self_ns) /
                  static_cast<double>(rec.duration_ns)
            : 0.0;
    std::snprintf(timing, sizeof(timing), "  %s  self=%s (%.1f%%)",
                  FormatMs(rec.duration_ns).c_str(),
                  FormatMs(node.self_ns).c_str(), self_pct);
    line += timing;
    for (const auto& [key, value] : rec.attrs) {
      line += "  ";
      line += key;
      line += "=";
      line += FormatAttr(value);
    }
    out += line;
    out += "\n";
    std::string child_prefix = prefix;
    if (!root) child_prefix += last ? "   " : "│  ";
    for (size_t i = 0; i < node.children.size(); ++i) {
      self(self, node.children[i], child_prefix,
           i + 1 == node.children.size(), false);
    }
  };
  for (size_t i = 0; i < roots_.size(); ++i) {
    render(render, roots_[i], "", i + 1 == roots_.size(), true);
  }
  return out;
}

std::string Profile::RenderChromeTrace() const {
  std::string out = "{\"traceEvents\": [";
  char buf[160];
  bool first = true;
  for (const auto& rec : spans_) {
    if (!first) out += ",";
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                  "\"args\": {",
                  JsonEscape(rec.name).c_str(),
                  JsonEscape(rec.category).c_str(),
                  static_cast<double>(rec.start_ns) / 1e3,
                  static_cast<double>(rec.duration_ns) / 1e3);
    out += buf;
    std::snprintf(buf, sizeof(buf), "\"span\": %llu, \"parent\": %llu",
                  static_cast<unsigned long long>(rec.id),
                  static_cast<unsigned long long>(rec.parent));
    out += buf;
    for (const auto& [key, value] : rec.attrs) {
      std::snprintf(buf, sizeof(buf), ", \"%s\": %s", JsonEscape(key).c_str(),
                    FormatAttr(value).c_str());
      out += buf;
    }
    out += "}}";
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

bool Profile::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write trace %s\n", path.c_str());
    return false;
  }
  std::string json = RenderChromeTrace();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace gdms::obs
