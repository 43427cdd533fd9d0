#include "net/trace.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

namespace ncc {

RoundTrace::RoundTrace(Network& net) : net_(net), in_degree_(net.n(), 0) {
  delivery_id_ =
      net_.add_delivery_hook([this](const Message& m, uint64_t) { on_deliver(m); });
  round_id_ = net_.add_round_hook(
      [this](uint64_t round, const NetStats&) { close_round(round); });
}

RoundTrace::~RoundTrace() {
  net_.remove_delivery_hook(delivery_id_);
  net_.remove_round_hook(round_id_);
}

void RoundTrace::close_round(uint64_t round) {
  current_.round = round;
  samples_.push_back(current_);
  current_ = RoundSample{};
  for (NodeId u : touched_) in_degree_[u] = 0;
  touched_.clear();
}

void RoundTrace::on_deliver(const Message& m) {
  ++current_.messages;
  uint32_t& deg = in_degree_[m.dst];
  if (deg == 0) {
    ++current_.busy_nodes;
    touched_.push_back(m.dst);
  }
  ++deg;
  current_.max_in_degree = std::max(current_.max_in_degree, deg);
}

uint64_t RoundTrace::total_messages() const {
  uint64_t total = 0;
  for (const RoundSample& s : samples_) total += s.messages;
  return total;
}

RoundSample RoundTrace::peak() const {
  RoundSample best{};
  for (const RoundSample& s : samples_)
    if (s.messages > best.messages) best = s;
  return best;
}

void RoundTrace::write_csv(std::ostream& os) const {
  os << "round,messages,max_in_degree,busy_nodes\n";
  for (const RoundSample& s : samples_)
    os << s.round << ',' << s.messages << ',' << s.max_in_degree << ','
       << s.busy_nodes << '\n';
}

void RoundTrace::save_csv(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open for writing: " + path);
  write_csv(os);
}

}  // namespace ncc
