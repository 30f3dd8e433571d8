// Jacobson/Karels RTT estimator (RFC 6298), shared by the SwitchML worker's
// adaptive slot RTO (§6) and the baseline transport's adaptive RTO:
//   first sample R:  SRTT <- R, RTTVAR <- R/2
//   later samples:   SRTT <- SRTT + (R - SRTT)/8,
//                    RTTVAR <- RTTVAR + (|R - SRTT| - RTTVAR)/4
//   RTO = SRTT + 4 RTTVAR, clamped to the caller's [lo, hi].
// Callers feed it Karn-filtered samples (never one timed across a
// retransmission).
#pragma once

#include <algorithm>
#include <cmath>

#include "common/units.hpp"

namespace switchml {

class RttEstimator {
public:
  void sample(Time rtt) {
    const double r = static_cast<double>(rtt);
    if (!have_sample_) {
      srtt_ = r;
      rttvar_ = r / 2.0;
      have_sample_ = true;
    } else {
      const double err = r - srtt_;
      srtt_ += err / 8.0;
      rttvar_ += (std::abs(err) - rttvar_) / 4.0;
    }
  }

  [[nodiscard]] bool has_sample() const { return have_sample_; }

  [[nodiscard]] Time rto(Time lo, Time hi) const {
    return std::clamp(static_cast<Time>(srtt_ + 4.0 * rttvar_), lo, hi);
  }

private:
  double srtt_ = 0.0;
  double rttvar_ = 0.0;
  bool have_sample_ = false;
};

} // namespace switchml
