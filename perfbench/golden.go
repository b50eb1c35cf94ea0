package main

import (
	"crypto/sha256"
	"encoding/hex"
)

// goldens pins the SHA-256 of each workload's output summary for seed 1. A
// change to the program that alters one alters the simulated results, which
// must be deliberate: update the digest in the same change.
var goldens = map[string]string{
	"scale-2500":    "d2b06fe967a884aac68d6a3e95add81e8c1694aec1d2ef27af3bbcd175ab73bf",
	"traffic-lossy": "3f199173a50e97261ffe6953b972866021a2be325bf7d8203191385202f4d7f9",
	"figures":       "93f6d2403582ca8e9612823e044896274c3949d92a85b98c1848e5845b8b2072",
	"daemon-mesh":   "67b7dd5b8c744d528d5e752bc4fee9a7197febf51d24fb5f5bda8251e421a338",
}

func golden(workload, output string) bool {
	sum := sha256.Sum256([]byte(output))
	return goldens[workload] == hex.EncodeToString(sum[:])
}
