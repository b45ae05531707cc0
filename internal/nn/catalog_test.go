package nn_test

import (
	"testing"

	"rtmdm/internal/models"
	"rtmdm/internal/nn"
)

// TestLivenessCatalog checks the one-pass liveness against the direct
// definitions at every node of every catalog model.
func TestLivenessCatalog(t *testing.T) {
	for _, name := range models.Names() {
		m, err := models.Reference(name)
		if err != nil {
			t.Fatal(err)
		}
		nn.CheckLiveness(t, m)
	}
}
