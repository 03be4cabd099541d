package interp

// ConformancePrograms hands the differential corpus to the package's
// external tests, which (unlike this package's own) may import packages
// that import interp. Each entry is {name, source}.
func ConformancePrograms() [][2]string {
	out := make([][2]string, len(conformanceCorpus))
	for i, tc := range conformanceCorpus {
		out[i] = [2]string{tc.name, tc.src}
	}
	return out
}
