package main

// workloads returns the benchmark's workloads by name. BENCHMARK.json records
// why each was chosen and which layers it exercises.
func workloads() map[string]*workload {
	return map[string]*workload{
		"scale-2500":    {name: "scale-2500", setup: setupScale, check: checkScale},
		"traffic-lossy": {name: "traffic-lossy", setup: setupLossy, check: checkLossy},
		"figures":       {name: "figures", setup: setupFigures, check: checkFigures},
		"daemon-mesh":   {name: "daemon-mesh", setup: setupMesh, check: checkMesh},
	}
}
