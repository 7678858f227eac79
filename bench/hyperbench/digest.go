package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"hypertrio/internal/core"
)

// digest is the sha256 of a run's Result without its time series: every
// counter and rate the model reports, so any change to what the program
// computes changes the digest.
func digest(r core.Result) string {
	r.Series = nil
	b, err := json.Marshal(r)
	if err != nil {
		panic(fmt.Sprintf("hyperbench: marshal result: %v", err)) // Result is plain data
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// digestSeed is the seed the committed digests were recorded at.
const digestSeed = 42

const digestSchema = "hyperbench-digests/1"

type digestFile struct {
	Schema  string            `json:"schema"`
	Seed    int64             `json:"seed"`
	Digests map[string]string `json:"digests"`
}

func loadDigests(path string) (map[string]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f digestFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != digestSchema || f.Seed != digestSeed {
		return nil, fmt.Errorf("%s: want schema %s at seed %d, got %q at %d", path, digestSchema, digestSeed, f.Schema, f.Seed)
	}
	return f.Digests, nil
}

func writeDigests(path string, digests map[string]string) error {
	b, err := json.MarshalIndent(digestFile{Schema: digestSchema, Seed: digestSeed, Digests: digests}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
