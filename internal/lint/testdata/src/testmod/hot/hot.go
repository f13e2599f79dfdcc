// Package hot seeds hotpath-analyzer cases: allocation and dynamic
// dispatch inside //simlint:hotpath functions, each next to its
// allowed form.
package hot

import "fmt"

// Fast calls another hot-path function and does arithmetic: clean.
//
//simlint:hotpath
func Fast(x uint64) uint64 {
	return helper(x) + 1
}

//simlint:hotpath
func helper(x uint64) uint64 { return x << 1 }

// Alloc makes a slice on the hot path: flagged.
//
//simlint:hotpath
func Alloc(n int) []int {
	return make([]int, n) // want hotpath `make (heap allocation)`
}

// Append grows a slice on the hot path: flagged.
//
//simlint:hotpath
func Append(dst []int, v int) []int {
	return append(dst, v) // want hotpath `append`
}

// Recycles empties a map and a slice in place with the non-allocating
// builtins: clean.
//
//simlint:hotpath
func Recycles(m map[int]int, s []int) {
	delete(m, 0)
	clear(m)
	clear(s)
}

// Print formats on the hot path: flagged.
//
//simlint:hotpath
func Print(x int) {
	fmt.Println(x) // want hotpath `fmt.Println call`
}

// Defers on the hot path: flagged.
//
//simlint:hotpath
func Defers(x uint64) uint64 {
	defer helper(x) // want hotpath `defer`
	return x
}

// Closes over x on the hot path: flagged.
//
//simlint:hotpath
func Closes(x uint64) uint64 {
	f := func() uint64 { return x } // want hotpath `closure`
	return f()                      // want hotpath `dynamic call through function value f`
}

// CallsCold calls an unannotated function: flagged.
//
//simlint:hotpath
func CallsCold(x uint64) uint64 {
	return slow(x) // want hotpath `call to non-hot-path function slow`
}

func slow(x uint64) uint64 { return x * 3 }

// UsesCold calls a declared cold path: clean (the annotation asserts
// the call is rare and amortized).
//
//simlint:hotpath
func UsesCold(x uint64) uint64 { return Cold(x) }

// Cold is a declared rare path; its own body is unconstrained.
//
//simlint:coldpath rare path by design; exercised once per run
func Cold(x uint64) uint64 { return x + uint64(len(fmt.Sprint(x))) }

// FaultOK takes an error exit under a statement-level coldpath
// annotation: clean.
//
//simlint:hotpath
func FaultOK(x int) error {
	if x < 0 {
		//simlint:coldpath architectural fault; never taken on the measured path
		return fmt.Errorf("bad %d", x)
	}
	return nil
}

// Boxer is a minimal interface for the boxing case.
type Boxer interface{ Box() int }

// Val is a concrete Boxer.
type Val struct{ N int }

// Box implements Boxer.
func (v Val) Box() int { return v.N }

// ToIface boxes a concrete value into an interface return: flagged.
//
//simlint:hotpath
func ToIface(v Val) Boxer {
	return v // want hotpath `boxing`
}

// StructValue builds a plain struct value (stack-allocated): clean.
//
//simlint:hotpath
func StructValue(n int) Val {
	return Val{N: n}
}
