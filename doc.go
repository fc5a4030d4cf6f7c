// Package ocd discovers order dependencies in relational data.
//
// It implements OCDDISCOVER from "Discovering Order Dependencies through
// Order Compatibility" (Consonni, Montresor, Sottovia, Velegrakis — EDBT
// 2019): a parallel order-dependency discovery algorithm that searches the
// space of order compatibility dependencies. The search is complete over
// candidates whose two sides are disjoint only: an OD whose sides share a
// prefix, such as AB → AC on the rows (0,1,5) (0,2,6) (1,1,1) (1,2,2) of
// A,B,C, can be missed, as the errata note on the paper (arXiv 1905.02010)
// points out.
//
// An order dependency (OD) X → Y states that sorting a table by the
// attribute list X also sorts it by Y — the property that lets a query
// optimizer rewrite ORDER BY income, bracket, tax into ORDER BY income.
// An order compatibility dependency (OCD) X ~ Y states that X and Y are
// monotonically aligned: XY ↔ YX. Every OD factors into a functional
// dependency plus an OCD, and OCDDISCOVER exploits that factorization to
// prune a factorial search space down to what real data requires.
//
// # Quick start
//
//	tbl, err := ocd.LoadCSVFile("data.csv")
//	if err != nil { ... }
//	res, err := tbl.Discover(ocd.Options{Workers: 8})
//	if err != nil { ... }
//	for _, d := range res.OCDs {
//	    fmt.Println(d) // e.g. [income] ~ [savings]
//	}
//
// Beyond discovery, the package exposes the supporting machinery as part of
// its API surface: ORDER BY simplification (Table.SimplifyOrderBy), column
// entropy profiling for the "most interesting columns" mode
// (Table.TopEntropyColumns), and sampling helpers (Table.Head,
// Table.Project) used by the paper's scalability experiments.
//
// The internal packages additionally contain from-scratch implementations
// of the baselines the paper compares against — ORDER (Langer & Naumann)
// and FASTOD (Szlichta et al.) — plus TANE for functional dependencies, a
// bounded OD axiom engine, and generators for every dataset of the
// evaluation; see DESIGN.md for the system inventory and EXPERIMENTS.md for
// the reproduction results.
package ocd
