package krylov

import "fmt"

// Method is one row of the solver registry: a method's name, its solver,
// and the traits callers key their set-up on.
type Method struct {
	Name  string
	Solve Solver
	// SStep marks the methods that consume Options.S.
	SStep bool
	// Preconditioned marks the methods that apply the preconditioner; the
	// others ignore it, so callers build none for them.
	Preconditioned bool
}

// Methods is the solver registry in presentation order: the 1-step
// baselines, the stability-aware pipelined variants, the s-step family and
// the paper's hybrid, then the resilience ladder. Adding a method means
// adding one row here.
var Methods = []Method{
	{Name: "pcg", Solve: PCG, Preconditioned: true},
	{Name: "cg-cg", Solve: CGCG, Preconditioned: true},
	{Name: "groppcg", Solve: GROPPCG, Preconditioned: true},
	{Name: "pipecg", Solve: PIPECG, Preconditioned: true},
	{Name: "pipecg3", Solve: PIPECG3, Preconditioned: true},
	{Name: "pipecg-oati", Solve: PIPECGOATI, Preconditioned: true},
	{Name: "pipe-pr-cg", Solve: PIPEPRCG, Preconditioned: true},
	{Name: "pipe-m-cg-rr", Solve: PIPEMCGRR, Preconditioned: true},
	{Name: "scg", Solve: SCG, SStep: true},
	{Name: "pscg", Solve: PSCG, SStep: true, Preconditioned: true},
	{Name: "scg-s", Solve: SCGS, SStep: true},
	{Name: "pipe-scg", Solve: PIPESCG, SStep: true},
	{Name: "pipe-pscg", Solve: PIPEPSCG, SStep: true, Preconditioned: true},
	{Name: "hybrid", Solve: Hybrid, SStep: true, Preconditioned: true},
	{Name: "ladder", Solve: SolveLadder, SStep: true, Preconditioned: true},
}

// Lookup returns the registry row for a method name.
func Lookup(name string) (Method, error) {
	for _, m := range Methods {
		if m.Name == name {
			return m, nil
		}
	}
	return Method{}, fmt.Errorf("krylov: unknown method %q", name)
}
