package platform

import (
	"math"
	"strings"
	"testing"

	"sisyphus/internal/probe"
)

// TestValidateMeasurementNonFinite exercises the defense-in-depth validator
// directly: JSON itself cannot carry NaN, but the validator must still
// reject one (a decoder swap or hand-built record could smuggle it in).
func TestValidateMeasurementNonFinite(t *testing.T) {
	m := &probe.Measurement{ID: 1, Hour: 1, RTTms: 5}
	if err := validateMeasurement(m); err != nil {
		t.Fatalf("finite measurement rejected: %v", err)
	}
	m.RTTms = math.NaN()
	if err := validateMeasurement(m); err == nil || !strings.Contains(err.Error(), "RTTms") {
		t.Fatalf("NaN RTTms not rejected: %v", err)
	}
	m.RTTms = 5
	m.TrueMaxUtil = math.Inf(1)
	if err := validateMeasurement(m); err == nil || !strings.Contains(err.Error(), "TrueMaxUtil") {
		t.Fatalf("+Inf TrueMaxUtil not rejected: %v", err)
	}
}
