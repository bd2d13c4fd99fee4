package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
)

// benchSpec is BENCHMARK.json: the single place metric names, units,
// directions and regression bounds are written down. The program reads it
// for -compare and the package test reads it to check that what is emitted
// is what is declared; nothing here is duplicated in Go.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// resultSet is the -out file: a machine fingerprint and the runs made on it.
type resultSet struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Runs        []runRecord `json:"runs"`
}

type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	runResult
}

func loadResultSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

// appendRun adds one run to the result set at path, creating it (with this
// machine's fingerprint) if need be.
func appendRun(path, workload string, p runParams, res *runResult) error {
	rs, err := loadResultSet(path)
	if errors.Is(err, fs.ErrNotExist) {
		rs, err = &resultSet{Fingerprint: readFingerprint()}, nil
	}
	if err != nil {
		return err
	}
	rs.Runs = append(rs.Runs, runRecord{Workload: workload, Seed: p.seed, Seconds: p.seconds, Traced: p.traced, runResult: *res})
	b, err := json.MarshalIndent(rs, "", " ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
