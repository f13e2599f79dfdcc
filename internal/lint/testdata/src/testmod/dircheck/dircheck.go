// Package dircheck seeds directive-grammar cases: unknown verbs and
// missing reasons.
package dircheck

//simlint:frobnicate whatever
func A() {} // want-1 directive `unknown simlint directive frobnicate`

//simlint:ordered
func B() {} // want-1 directive `requires a reason`

//simlint:keystruct
type C struct{ X int } // want-1 directive `must name the key-hash function`

//simlint:ordered keys are sorted upstream
func D() {}

//simlint:unpadded
type E struct{ X int } // want-1 directive `requires a reason`
