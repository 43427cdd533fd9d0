#include "obs/tracer.hpp"

#include "common/assert.hpp"

namespace ncc::obs {

Tracer::Tracer(Network& net, size_t max_spans) : net_(net), max_spans_(max_spans) {
  NCC_ASSERT_MSG(net_.tracer_ == nullptr, "network already has a tracer attached");
  net_.tracer_ = this;
}

Tracer::~Tracer() { net_.tracer_ = nullptr; }

Tracer::Snapshot Tracer::snap() const {
  const NetStats& s = net_.stats();
  return {s.rounds,          s.charged_rounds, s.messages_sent,
          s.messages_dropped, s.fault_drops,    s.corrupted};
}

uint64_t Tracer::begin(std::string_view name) {
  ++begun_;
  Open open;
  open.at_begin = snap();
  if (spans_.size() < max_spans_) {
    SpanRecord rec;
    rec.name = std::string(name);
    rec.depth = static_cast<uint32_t>(stack_.size());
    rec.parent = -1;
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->index >= 0) {
        rec.parent = it->index;
        break;
      }
    }
    rec.begin_round = open.at_begin.rounds;
    rec.end_round = open.at_begin.rounds;
    open.index = static_cast<int64_t>(spans_.size());
    spans_.push_back(std::move(rec));
  } else {
    open.index = -1;  // counted via begun_, not stored
  }
  stack_.push_back(open);
  // Token = position in the open stack; end() enforces LIFO discipline.
  return stack_.size() - 1;
}

void Tracer::end(uint64_t token) {
  NCC_ASSERT_MSG(token + 1 == stack_.size(), "spans must close in LIFO order");
  const Open& open = stack_.back();
  if (open.index >= 0) {
    Snapshot now = snap();
    SpanRecord& rec = spans_[static_cast<size_t>(open.index)];
    rec.end_round = now.rounds;
    rec.charged = now.charged - open.at_begin.charged;
    rec.messages = now.messages - open.at_begin.messages;
    rec.dropped = now.dropped - open.at_begin.dropped;
    rec.fault_drops = now.fault_drops - open.at_begin.fault_drops;
    rec.corrupted = now.corrupted - open.at_begin.corrupted;
  }
  stack_.pop_back();
}

void Tracer::write_json(JsonWriter& w) const {
  w.begin_object();
  w.kv("count", begun_);
  w.kv("truncated", truncated());
  w.key("spans");
  w.begin_array();
  for (const SpanRecord& s : spans_) {
    w.begin_object();
    w.kv("name", s.name);
    w.kv("depth", uint64_t{s.depth});
    w.kv("begin", s.begin_round);
    w.kv("end", s.end_round);
    w.kv("rounds", s.end_round - s.begin_round);
    w.kv("charged", s.charged);
    w.kv("messages", s.messages);
    w.kv("dropped", s.dropped);
    w.kv("fault_drops", s.fault_drops);
    w.kv("corrupted", s.corrupted);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace ncc::obs
