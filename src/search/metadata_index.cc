#include "search/metadata_index.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <set>
#include <unordered_map>

#include "common/string_util.h"
#include "gdm/query_context.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gdms::search {

std::vector<std::string> TokenizeMeta(const std::string& text) {
  std::vector<std::string> out;
  std::string current;
  for (char c : text) {
    // '_' is a word character: ontology term ids ("cancer_cell_line") and
    // condition labels ("oncogene_induced") must stay whole.
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
      current.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else if (!current.empty()) {
      out.push_back(std::move(current));
      current.clear();
    }
  }
  if (!current.empty()) out.push_back(std::move(current));
  return out;
}

void MetadataIndex::IndexTerm(const std::string& term, uint32_t doc) {
  auto& list = postings_[term];
  if (!list.empty() && list.back().doc == doc) {
    ++list.back().tf;
  } else {
    list.push_back({doc, 1});
  }
}

void MetadataIndex::AddDataset(const gdm::Dataset& dataset) {
  for (const auto& s : dataset.samples()) {
    uint32_t doc = static_cast<uint32_t>(docs_.size());
    docs_.push_back({dataset.name(), s.id});
    size_t terms = 0;
    for (const auto& e : s.metadata.entries()) {
      for (const auto& tok : TokenizeMeta(e.attr)) {
        IndexTerm(tok, doc);
        ++terms;
      }
      for (const auto& tok : TokenizeMeta(e.value)) {
        IndexTerm(tok, doc);
        ++terms;
      }
      pairs_[{e.attr, e.value}].push_back(doc);
    }
    doc_norm_.push_back(
        std::sqrt(static_cast<double>(std::max<size_t>(1, terms))));
  }
  static obs::Counter* indexed = obs::MetricsRegistry::Global().GetCounter(
      "gdms_search_docs_indexed_total");
  indexed->Add(dataset.num_samples());
}

std::vector<SearchHit> MetadataIndex::Search(const std::string& query,
                                             size_t limit) const {
  static obs::Counter* queries =
      obs::MetricsRegistry::Global().GetCounter("gdms_search_queries_total");
  static obs::Histogram* latency = obs::MetricsRegistry::Global().GetHistogram(
      "gdms_search_query_latency_us");
  queries->Add();
  obs::Tracer& tracer = obs::Tracer::Global();
  int64_t start_ns = tracer.NowNs();
  const gdm::QueryContext& context = gdm::QueryContext::Current();
  obs::Span span = tracer.StartSpan("search:" + query, "search", context.span,
                                    context.sink);
  std::unordered_map<uint32_t, double> scores;
  double n_docs = static_cast<double>(std::max<size_t>(1, docs_.size()));
  size_t matched_terms = 0;
  for (const auto& term : TokenizeMeta(query)) {
    auto it = postings_.find(term);
    if (it == postings_.end()) continue;
    ++matched_terms;
    double idf =
        std::log(1.0 + n_docs / static_cast<double>(it->second.size()));
    for (const auto& p : it->second) {
      scores[p.doc] += (1.0 + std::log(static_cast<double>(p.tf))) * idf /
                       doc_norm_[p.doc];
    }
  }
  std::vector<SearchHit> hits;
  hits.reserve(scores.size());
  for (const auto& [doc, score] : scores) {
    hits.push_back({docs_[doc], score});
  }
  std::sort(hits.begin(), hits.end(),
            [](const SearchHit& a, const SearchHit& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.ref < b.ref;
            });
  if (hits.size() > limit) hits.resize(limit);
  latency->Record(static_cast<uint64_t>((tracer.NowNs() - start_ns) / 1000));
  if (span.active()) {
    span.AddAttr("terms", static_cast<double>(matched_terms));
    span.AddAttr("hits", static_cast<double>(hits.size()));
  }
  return hits;
}

std::vector<SampleRef> MetadataIndex::Lookup(const std::string& attr,
                                             const std::string& value) const {
  std::vector<SampleRef> out;
  auto it = pairs_.find({attr, value});
  if (it == pairs_.end()) return out;
  for (uint32_t doc : it->second) out.push_back(docs_[doc]);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

PrEval MetadataIndex::Evaluate(const std::vector<SearchHit>& hits,
                               const std::vector<SampleRef>& relevant) {
  PrEval eval;
  if (hits.empty() || relevant.empty()) {
    eval.recall = relevant.empty() ? 1.0 : 0.0;
    eval.precision = hits.empty() ? 1.0 : 0.0;
    if (hits.empty() && relevant.empty()) eval.f1 = 1.0;
    return eval;
  }
  std::set<SampleRef> rel(relevant.begin(), relevant.end());
  size_t correct = 0;
  for (const auto& h : hits) {
    if (rel.count(h.ref)) ++correct;
  }
  eval.precision =
      static_cast<double>(correct) / static_cast<double>(hits.size());
  eval.recall = static_cast<double>(correct) / static_cast<double>(rel.size());
  if (eval.precision + eval.recall > 0) {
    eval.f1 = 2 * eval.precision * eval.recall / (eval.precision + eval.recall);
  }
  return eval;
}

}  // namespace gdms::search
