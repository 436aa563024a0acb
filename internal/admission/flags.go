package admission

import (
	"flag"
	"fmt"
	"math"
)

// RegisterFlags binds the operator-facing limits to -rate, -burst,
// -inflight and -queue on fs: the one admission flag block every serving
// binary (apiserver, gateway) takes.
func (o *Options) RegisterFlags(fs *flag.FlagSet) {
	fs.Float64Var(&o.Rate, "rate", 0, "per-client token refill rate, req/s (0 = no rate limiting)")
	fs.Float64Var(&o.Burst, "burst", 0, "per-client bucket capacity (0 = max(rate, 1))")
	fs.IntVar(&o.MaxInflight, "inflight", 0, "max concurrently admitted selections (0 = unlimited)")
	fs.IntVar(&o.MaxQueue, "queue", 0, "max queued requests past the inflight bound")
}

// FromFlags validates parsed limits and builds their controller: nil — no
// gate on the request path at all — when neither -rate nor -inflight is
// set. A non-finite -rate or -burst is refused: NaN compares false against
// every bound, so it would pass the sign check and switch the rate limit
// off (NaN rate) or refuse every request with a nonsense Retry-After (NaN
// burst).
func FromFlags(o Options) (*Controller, error) {
	if math.IsNaN(o.Rate) || math.IsInf(o.Rate, 0) || math.IsNaN(o.Burst) || math.IsInf(o.Burst, 0) {
		return nil, fmt.Errorf("-rate and -burst must be finite")
	}
	if o.Rate < 0 || o.Burst < 0 || o.MaxInflight < 0 || o.MaxQueue < 0 {
		return nil, fmt.Errorf("-rate, -burst, -inflight and -queue must be non-negative")
	}
	if o.Rate == 0 && o.MaxInflight == 0 {
		return nil, nil
	}
	return NewController(o), nil
}
