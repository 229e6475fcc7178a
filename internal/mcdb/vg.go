package mcdb

import (
	"fmt"
	"math"

	"modeldata/internal/engine"
	"modeldata/internal/rng"
)

// This file is the library of VG functions shipped with the MCDB layer,
// covering the examples in §2.1 of the paper: a simple normal
// generator, a backward random walk for imputing missing prior prices,
// a forward price path for option valuation, and a Bayesian customer
// demand generator.

// scalarGen is a one-value generator written once and exposed in both
// VG forms. decode turns the parameter row into the generator's
// parameters; draw makes one draw. The VG form decodes and draws once
// per call; the BatchVG form decodes once per tuple and then draws in
// iteration order, storing draw(...).AsFloat() exactly as the bundle
// adapter stores the VG form's value, so the two forms cannot drift.
type scalarGen[P any] struct {
	decode func(params engine.Row) (P, error)
	draw   func(p P, r *rng.Stream) engine.Value
}

func (g scalarGen[P]) vg() VG {
	return func(params engine.Row, r *rng.Stream) ([]engine.Value, error) {
		p, err := g.decode(params)
		if err != nil {
			return nil, err
		}
		return []engine.Value{g.draw(p, r)}, nil
	}
}

func (g scalarGen[P]) batch() BatchVG {
	return func(params engine.Row, r *rng.Stream, out [][]float64) error {
		if len(out) != 1 {
			return fmt.Errorf("%w: a one-value VG cannot fill %d uncertain columns", ErrBadSpec, len(out))
		}
		p, err := g.decode(params)
		if err != nil {
			return err
		}
		col := out[0]
		for it := range col {
			col[it] = g.draw(p, r).AsFloat()
		}
		return nil
	}
}

// normalGen draws Normal(params[0], params[1]).
var normalGen = scalarGen[[2]float64]{
	decode: func(params engine.Row) ([2]float64, error) {
		if len(params) < 2 {
			return [2]float64{}, fmt.Errorf("%w: Normal VG needs (mean, std), got %d params", ErrBadSpec, len(params))
		}
		return [2]float64{params[0].AsFloat(), params[1].AsFloat()}, nil
	},
	draw: func(p [2]float64, r *rng.Stream) engine.Value { return engine.Float(r.Normal(p[0], p[1])) },
}

// poissonGen draws Poisson(params[0]) as an integer.
var poissonGen = scalarGen[float64]{
	decode: func(params engine.Row) (float64, error) {
		if len(params) < 1 {
			return 0, fmt.Errorf("%w: Poisson VG needs (lambda)", ErrBadSpec)
		}
		return params[0].AsFloat(), nil
	},
	draw: func(lambda float64, r *rng.Stream) engine.Value { return engine.Int(int64(r.Poisson(lambda))) },
}

// distGen draws from a fixed rng.Dist, ignoring the parameter row.
func distGen(d rng.Dist) scalarGen[rng.Dist] {
	return scalarGen[rng.Dist]{
		decode: func(engine.Row) (rng.Dist, error) { return d, nil },
		draw:   func(d rng.Dist, r *rng.Stream) engine.Value { return engine.Float(d.Sample(r)) },
	}
}

// NormalVG returns a VG function drawing one value from
// Normal(params[0], params[1]) — MCDB's Normal VG function used by the
// SBP_DATA example. The parameter row must carry (mean, std).
func NormalVG() VG { return normalGen.vg() }

// NormalBatch is NormalVG's batch form: the parameters decode once per
// tuple and the draws match NormalVG's bit for bit.
func NormalBatch() BatchVG { return normalGen.batch() }

// PoissonVG returns a VG function drawing one value from
// Poisson(params[0]).
func PoissonVG() VG { return poissonGen.vg() }

// PoissonBatch is PoissonVG's batch form, bit-identical to it.
func PoissonBatch() BatchVG { return poissonGen.batch() }

// DistVG adapts any rng.Dist into a single-value VG function with fixed
// parameters.
func DistVG(d rng.Dist) VG { return distGen(d).vg() }

// DistBatch is DistVG's batch form, bit-identical to it.
func DistBatch(d rng.Dist) BatchVG { return distGen(d).batch() }

// BackwardWalkVG returns a VG function that executes a backward
// geometric random walk from a current price to estimate steps missing
// prior prices (the §2.1 example). Parameters: (currentPrice, drift,
// vol). It emits the estimated price `steps` ticks in the past.
func BackwardWalkVG(steps int) VG {
	return func(params engine.Row, r *rng.Stream) ([]engine.Value, error) {
		if len(params) < 3 {
			return nil, fmt.Errorf("%w: BackwardWalk VG needs (price, drift, vol)", ErrBadSpec)
		}
		price := params[0].AsFloat()
		drift := params[1].AsFloat()
		vol := params[2].AsFloat()
		for i := 0; i < steps; i++ {
			// Invert one forward log-step: divide out a sampled return.
			price /= 1 + drift + vol*r.StdNormal()
		}
		return []engine.Value{engine.Float(price)}, nil
	}
}

// OptionPayoffVG returns a VG function that simulates a forward
// geometric price path of `steps` ticks and reports the payoff of a
// European call struck at `strike` — the "value of a stock option one
// week from now" example. Parameters: (currentPrice, drift, vol).
func OptionPayoffVG(steps int, strike float64) VG {
	return func(params engine.Row, r *rng.Stream) ([]engine.Value, error) {
		if len(params) < 3 {
			return nil, fmt.Errorf("%w: OptionPayoff VG needs (price, drift, vol)", ErrBadSpec)
		}
		price := params[0].AsFloat()
		drift := params[1].AsFloat()
		vol := params[2].AsFloat()
		for i := 0; i < steps; i++ {
			price *= 1 + drift + vol*r.StdNormal()
		}
		payoff := price - strike
		if payoff < 0 {
			payoff = 0
		}
		return []engine.Value{engine.Float(payoff)}, nil
	}
}

// BayesianDemandVG returns a VG function for the customized customer
// demand example of §2.1: a global parametric demand model (gamma prior
// over a customer's mean demand rate) is updated with the customer's
// own purchase history via Bayes' theorem, and demand at the offered
// price is drawn from the posterior predictive.
//
// Parameters: (priorShape, priorRate, custPurchases, custPeriods,
// price). The demand rate λ has prior Gamma(shape, 1/rate); observing
// `custPurchases` purchases over `custPeriods` periods gives posterior
// Gamma(shape+purchases, 1/(rate+periods)). Demand at price p scales
// the posterior rate by the elasticity factor exp(−elasticity·p).
func BayesianDemandVG(elasticity float64) VG {
	return func(params engine.Row, r *rng.Stream) ([]engine.Value, error) {
		if len(params) < 5 {
			return nil, fmt.Errorf("%w: BayesianDemand VG needs 5 params", ErrBadSpec)
		}
		shape := params[0].AsFloat()
		rate := params[1].AsFloat()
		purchases := params[2].AsFloat()
		periods := params[3].AsFloat()
		price := params[4].AsFloat()
		postShape := shape + purchases
		postRate := rate + periods
		lambda := r.Gamma(postShape, 1/postRate)
		demand := r.Poisson(lambda * math.Exp(-elasticity*price))
		return []engine.Value{engine.Int(int64(demand))}, nil
	}
}
