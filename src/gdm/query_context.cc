#include "gdm/query_context.h"

namespace gdms::gdm {

namespace {
const QueryContext kNoQuery;
thread_local const QueryContext* current_query = &kNoQuery;
}  // namespace

const QueryContext& QueryContext::Current() { return *current_query; }

QueryContext::Scope::Scope(const QueryContext& context)
    : previous_(current_query) {
  current_query = &context;
}

QueryContext::Scope::~Scope() { current_query = previous_; }

}  // namespace gdms::gdm
