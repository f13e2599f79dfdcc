package program

// SetDigestHook installs f as the hook Digest calls each time it hashes
// a program and returns a function that restores the previous hook.
func SetDigestHook(f func()) (restore func()) {
	old := digestHook
	digestHook = f
	return func() { digestHook = old }
}
