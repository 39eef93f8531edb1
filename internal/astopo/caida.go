package astopo

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file implements readers and writers for the CAIDA AS-relationship
// dataset formats used by the paper:
//
// serial-1 (e.g. 20150901.as-rel.txt):
//	# comment lines
//	<provider-as>|<customer-as>|-1
//	<peer-as>|<peer-as>|0
//
// serial-2 (e.g. 20200901.as-rel2.txt) adds a source column:
//	<as0>|<as1>|<relationship>|<source>
//
// where source is typically "bgp" or "mlp" (multilateral peering). The
// reader accepts both and ignores the source column.

// ReadRelationships parses a CAIDA serial-1 or serial-2 AS-relationship
// stream into a Graph. Lines beginning with '#' are comments. Malformed
// lines produce an error naming the line number.
func ReadRelationships(r io.Reader) (*Graph, error) {
	g := NewGraph(0, 0)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		link, err := parseRelLine(line)
		if err != nil {
			return nil, fmt.Errorf("astopo: line %d: %w", lineno, err)
		}
		if err := g.AddLink(link.A, link.B, link.Rel); err != nil {
			return nil, fmt.Errorf("astopo: line %d: %w", lineno, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("astopo: reading relationships: %w", err)
	}
	return g, nil
}

func parseRelLine(line string) (Link, error) {
	fields := strings.Split(line, "|")
	if len(fields) != 3 && len(fields) != 4 {
		return Link{}, fmt.Errorf("expected 3 or 4 |-separated fields, got %d", len(fields))
	}
	a, err := parseASN(fields[0])
	if err != nil {
		return Link{}, err
	}
	b, err := parseASN(fields[1])
	if err != nil {
		return Link{}, err
	}
	relv, err := strconv.Atoi(strings.TrimSpace(fields[2]))
	if err != nil {
		return Link{}, fmt.Errorf("bad relationship %q: %v", fields[2], err)
	}
	var rel Rel
	switch relv {
	case -1:
		rel = P2C
	case 0:
		rel = P2P
	default:
		return Link{}, fmt.Errorf("unknown relationship code %d", relv)
	}
	return Link{A: a, B: b, Rel: rel}, nil
}

func parseASN(s string) (ASN, error) {
	v, err := strconv.ParseUint(strings.TrimSpace(s), 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad ASN %q: %v", s, err)
	}
	return ASN(v), nil
}

// WriteRelationships writes g in CAIDA serial-1 format, provider-first for
// p2c links, with a header comment. Links are written in insertion order.
func WriteRelationships(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "# flatnet AS-relationship export (CAIDA serial-1 format)"); err != nil {
		return err
	}
	for _, l := range g.Links() {
		if _, err := fmt.Fprintf(bw, "%d|%d|%d\n", l.A, l.B, int8(l.Rel)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadPPDCAses parses a CAIDA ppdc-ases customer-cone file: each line is
// "<as> <cone-member> <cone-member> ...". Returns cone membership keyed by
// AS.
func ReadPPDCAses(r io.Reader) (map[ASN][]ASN, error) {
	out := make(map[ASN][]ASN)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 1 {
			continue
		}
		owner, err := parseASN(fields[0])
		if err != nil {
			return nil, fmt.Errorf("astopo: ppdc line %d: %w", lineno, err)
		}
		cone := make([]ASN, 0, len(fields)-1)
		for _, f := range fields[1:] {
			m, err := parseASN(f)
			if err != nil {
				return nil, fmt.Errorf("astopo: ppdc line %d: %w", lineno, err)
			}
			cone = append(cone, m)
		}
		out[owner] = cone
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("astopo: reading ppdc-ases: %w", err)
	}
	return out, nil
}

// WritePPDCAses writes customer cones in CAIDA ppdc-ases format.
func WritePPDCAses(w io.Writer, cones map[ASN][]ASN) error {
	bw := bufio.NewWriter(w)
	owners := make([]ASN, 0, len(cones))
	for a := range cones {
		owners = append(owners, a)
	}
	for i := 1; i < len(owners); i++ {
		for j := i; j > 0 && owners[j] < owners[j-1]; j-- {
			owners[j], owners[j-1] = owners[j-1], owners[j]
		}
	}
	for _, owner := range owners {
		if _, err := fmt.Fprintf(bw, "%d", owner); err != nil {
			return err
		}
		for _, m := range cones[owner] {
			if _, err := fmt.Fprintf(bw, " %d", m); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}
