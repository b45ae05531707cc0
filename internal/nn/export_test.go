package nn

import "testing"

// CheckLiveness exposes checkLiveness to the external tests that run it
// over the model catalog (package models imports nn).
func CheckLiveness(t *testing.T, m *Model) { checkLiveness(t, m) }
