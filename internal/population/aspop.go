package population

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"flatnet/internal/astopo"
)

// This file reads and writes APNIC-style AS population estimate files
// (stats.labs.apnic.net/aspop "Visible ASNs: Customer Populations"),
// the dataset behind the paper's user weighting (§4.3, Figs. 9 and 13).
// The CSV layout is:
//
//	# rank,AS,cc,users,pct-of-internet
//	1,AS4134,CN,340000000,7.5
//
// ASNs may appear with or without the "AS" prefix.

// ASPopRecord is one row of an aspop file.
type ASPopRecord struct {
	Rank  int
	AS    astopo.ASN
	CC    string
	Users float64
	// PctInternet is the share of all Internet users, in percent.
	PctInternet float64
}

// ReadASPop parses an aspop CSV stream.
func ReadASPop(r io.Reader) ([]ASPopRecord, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out []ASPopRecord
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) != 5 {
			return nil, fmt.Errorf("population: aspop line %d: expected 5 fields, got %d", lineno, len(fields))
		}
		rank, err := strconv.Atoi(strings.TrimSpace(fields[0]))
		if err != nil {
			return nil, fmt.Errorf("population: aspop line %d: bad rank: %v", lineno, err)
		}
		asStr := strings.TrimPrefix(strings.TrimSpace(fields[1]), "AS")
		asn, err := strconv.ParseUint(asStr, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("population: aspop line %d: bad ASN %q", lineno, fields[1])
		}
		users, err := strconv.ParseFloat(strings.TrimSpace(fields[3]), 64)
		if err != nil {
			return nil, fmt.Errorf("population: aspop line %d: bad users: %v", lineno, err)
		}
		pct, err := strconv.ParseFloat(strings.TrimSpace(fields[4]), 64)
		if err != nil {
			return nil, fmt.Errorf("population: aspop line %d: bad percent: %v", lineno, err)
		}
		out = append(out, ASPopRecord{
			Rank: rank, AS: astopo.ASN(asn), CC: strings.TrimSpace(fields[2]),
			Users: users, PctInternet: pct,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("population: reading aspop: %w", err)
	}
	return out, nil
}

// WriteASPop writes records in aspop CSV format, re-ranked by users
// descending.
func WriteASPop(w io.Writer, records []ASPopRecord) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "# rank,AS,cc,users,pct-of-internet"); err != nil {
		return err
	}
	sorted := append([]ASPopRecord(nil), records...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Users != sorted[j].Users {
			return sorted[i].Users > sorted[j].Users
		}
		return sorted[i].AS < sorted[j].AS
	})
	for i, rec := range sorted {
		if _, err := fmt.Fprintf(bw, "%d,AS%d,%s,%.0f,%.4f\n",
			i+1, rec.AS, rec.CC, rec.Users, rec.PctInternet); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Export dumps the model's eyeball populations as aspop records, scaled so
// user counts read like real-world magnitudes (the Share column is what
// analyses consume).
func (m *Model) Export(cc func(astopo.ASN) string) []ASPopRecord {
	const scaleUsers = 4.5e9 // "Internet users" the synthetic world holds
	var out []ASPopRecord
	for i, u := range m.users {
		if u == 0 {
			continue
		}
		a := m.asns[i]
		country := "ZZ"
		if cc != nil {
			country = cc(a)
		}
		out = append(out, ASPopRecord{
			AS:          a,
			CC:          country,
			Users:       u / m.total * scaleUsers,
			PctInternet: 100 * u / m.total,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Users != out[j].Users {
			return out[i].Users > out[j].Users
		}
		return out[i].AS < out[j].AS
	})
	for i := range out {
		out[i].Rank = i + 1
	}
	return out
}

// ModelFromASPop builds a user-population model from parsed aspop records
// (for running the user-weighted analyses on real APNIC data). AS types are
// access for every listed AS and enterprise otherwise.
func ModelFromASPop(records []ASPopRecord) *Model {
	sorted := append([]ASPopRecord(nil), records...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].AS < sorted[j].AS })
	m := &Model{
		asns:  make([]astopo.ASN, 0, len(sorted)),
		types: make([]ASType, 0, len(sorted)),
		users: make([]float64, 0, len(sorted)),
	}
	for _, r := range sorted {
		if n := len(m.asns); n > 0 && m.asns[n-1] == r.AS {
			m.users[n-1] += r.Users // duplicate rows merge, as map writes did
			continue
		}
		m.asns = append(m.asns, r.AS)
		m.types = append(m.types, TypeAccess)
		m.users = append(m.users, r.Users)
	}
	// Sum in record order so the total matches the pre-dense behavior
	// bit-for-bit.
	for _, r := range records {
		m.total += r.Users
	}
	return m
}
