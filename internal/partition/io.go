package partition

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"xdgp/internal/graph"
)

// Save persists the assignment in the METIS .part convention extended
// with a header: line 1 is "k slots", then one partition id per vertex
// slot in ID order (-1 for unassigned/dead slots). Systems use it to save
// a converged partitioning and reload it instead of re-adapting from hash
// on restart.
func (a *Assignment) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", a.k, len(a.of)); err != nil {
		return err
	}
	for _, c := range a.of {
		if _, err := fmt.Fprintln(bw, int(c.id())); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load parses an assignment written by Save.
func Load(r io.Reader) (*Assignment, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("partition: read header: %w", err)
		}
		return nil, fmt.Errorf("partition: missing header")
	}
	header := strings.Fields(sc.Text())
	if len(header) != 2 {
		return nil, fmt.Errorf("partition: header %q needs 'k slots'", sc.Text())
	}
	k, err := strconv.Atoi(header[0])
	if err != nil || k < 1 || k > MaxK {
		return nil, fmt.Errorf("partition: bad k %q", header[0])
	}
	slots, err := strconv.Atoi(header[1])
	if err != nil || slots < 0 {
		return nil, fmt.Errorf("partition: bad slot count %q", header[1])
	}
	a := NewAssignment(slots, k)
	for i := 0; i < slots; i++ {
		if !sc.Scan() {
			return nil, fmt.Errorf("partition: truncated at slot %d", i)
		}
		p, err := strconv.Atoi(strings.TrimSpace(sc.Text()))
		if err != nil || p < -1 || p >= k {
			return nil, fmt.Errorf("partition: slot %d: bad partition %q", i, sc.Text())
		}
		if p >= 0 {
			a.Assign(graph.VertexID(i), ID(p))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("partition: scan: %w", err)
	}
	return a, nil
}
