package apps

import (
	"math"

	"xdgp/internal/bsp"
)

// Cardiac simulates electrically coupled heart cells on a 3-d FEM mesh,
// the paper's biomedical use case: "Each vertex computes more than 32
// differential equations on one hundred variables representing the way
// cardiac cells are excited to produce a synchronised heart contraction"
// (ten Tusscher et al. 2004). The cell model here is a FitzHugh–Nagumo-
// style excitable system extended to NumVars gating/concentration
// variables so that the per-vertex compute cost matches the paper's
// CPU-heavy profile ("CPU time is not negligible, more than 17%"), while
// membrane potential diffuses to mesh neighbours through messages — the
// communication that dominates iteration time (">80%") under poor
// partitionings.
//
// The program never votes to halt: the simulation runs continuously.
type Cardiac struct {
	// NumVars is the size of each cell's state vector (paper: ~100).
	NumVars int
	// NumEquations is how many update equations run per step (paper: >32).
	NumEquations int
	// Dt is the integration step.
	Dt float64
	// DiffusionCoeff couples neighbouring membrane potentials.
	DiffusionCoeff float64
	// StimulusPeriod re-excites pacemaker cells every so many supersteps.
	StimulusPeriod int
}

// NewCardiac returns the configuration matching the paper's description.
func NewCardiac() *Cardiac {
	return &Cardiac{
		NumVars:        100,
		NumEquations:   32,
		Dt:             0.02,
		DiffusionCoeff: 0.4,
		StimulusPeriod: 50,
	}
}

// CostPerVertex declares the heavy per-vertex compute to the engine's cost
// clock (32 equations vs a one-line PageRank update).
func (c *Cardiac) CostPerVertex() float64 { return float64(c.NumEquations) }

// cellState is the per-vertex value; index 0 is the membrane potential,
// index 1 the recovery variable, the rest are auxiliary gating variables.
type cellState []float64

// Init creates a resting cell; vertex 0 acts as the pacemaker.
func (c *Cardiac) Init(ctx *bsp.VertexContext[float64]) any {
	st := make(cellState, c.NumVars)
	if ctx.ID() == 0 {
		st[0] = 1.0 // initial stimulus at the pacemaker
	}
	return st
}

// CloneValue deep-copies cell state for checkpointing.
func (c *Cardiac) CloneValue(v any) any {
	st, ok := v.(cellState)
	if !ok {
		return v
	}
	return append(cellState(nil), st...)
}

// Compute advances the cell one time step: diffusion from neighbour
// potentials, FitzHugh–Nagumo excitation dynamics, and NumEquations
// auxiliary gating updates over the state vector.
func (c *Cardiac) Compute(ctx *bsp.VertexContext[float64], msgs []float64) {
	st, ok := ctx.Value().(cellState)
	if !ok || len(st) < 2 {
		st = make(cellState, c.NumVars)
		ctx.SetValue(st)
	}
	v, w := st[0], st[1]

	// Diffusive coupling with neighbours (cable equation term).
	if len(msgs) > 0 {
		sum := 0.0
		for _, x := range msgs {
			sum += x
		}
		v += c.Dt * c.DiffusionCoeff * (sum/float64(len(msgs)) - v)
	}

	// FitzHugh–Nagumo excitation.
	v += c.Dt * (v*(1-v)*(v-0.1) - w)
	w += c.Dt * 0.02 * (0.5*v - w)

	// Periodic pacemaker stimulus keeps the tissue active.
	if ctx.ID() == 0 && c.StimulusPeriod > 0 && ctx.Superstep()%c.StimulusPeriod == 0 {
		v = 1.0
	}

	// Auxiliary gating equations: a deterministic relaxation cascade over
	// the remaining variables, standing in for the ten-Tusscher system's
	// ionic currents (same arithmetic volume, bounded dynamics).
	prev := v
	for eq := 0; eq < c.NumEquations; eq++ {
		idx := 2 + eq%(len(st)-2)
		g := st[idx]
		g += c.Dt * (sigmoid(prev) - g)
		st[idx] = g
		prev = g
	}

	st[0] = clamp(v, -2, 2)
	st[1] = clamp(w, -2, 2)
	ctx.AggregateMax("cardiac.maxV", st[0])

	// Share the membrane potential with the coupled neighbours.
	ctx.SendToNeighbors(st[0])
}

// Potential extracts the membrane potential from a cell value.
func Potential(v any) float64 {
	if st, ok := v.(cellState); ok && len(st) > 0 {
		return st[0]
	}
	return 0
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-4*x)) }

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

var (
	_ bsp.Program[float64] = (*Cardiac)(nil)
	_ bsp.CostDeclarer     = (*Cardiac)(nil)
	_ bsp.ValueCloner      = (*Cardiac)(nil)
)
