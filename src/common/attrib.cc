#include "common/attrib.hh"

namespace hetsim::attrib
{

const char *
toString(Phase phase)
{
    switch (phase) {
      case Phase::QueueWait:
        return "queue_wait";
      case Phase::Prep:
        return "prep";
      case Phase::Cas:
        return "cas";
      case Phase::Bus:
        return "bus";
      case Phase::MshrWait:
        return "mshr_wait";
      case Phase::BulkWait:
        return "bulk_wait";
      case Phase::Reassembly:
        return "reassembly";
    }
    return "?";
}

} // namespace hetsim::attrib
