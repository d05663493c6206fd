package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// execSelf runs this binary again with args, waits for it, passes its
// report through (unless quiet) and decodes the result line — the last
// line of its standard output — and, where the report has one, the
// "defined" line listing every end-to-end metric of the workload.
func execSelf(args []string, quiet bool) (result, map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return result{}, nil, err
	}
	if err := cmd.Start(); err != nil {
		return result{}, nil, err
	}
	var last, defined string
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		last = sc.Text()
		if rest, ok := strings.CutPrefix(last, definedPrefix); ok {
			defined = rest
		}
		if !quiet {
			fmt.Println(last)
		}
	}
	scanErr := sc.Err()
	waitErr := cmd.Wait()
	if scanErr != nil {
		return result{}, nil, scanErr
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if waitErr != nil {
			return result{}, nil, waitErr
		}
		return result{}, nil, fmt.Errorf("no result line: %w", err)
	}
	all := map[string]float64{}
	if defined != "" {
		if err := json.Unmarshal([]byte(defined), &all); err != nil {
			return result{}, nil, fmt.Errorf("defined line: %w", err)
		}
	}
	// A child that printed a result but found a correctness violation
	// exits non-zero; the result says so itself.
	return res, all, nil
}
