package astopo

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file parses and writes the two CAIDA metadata formats the paper's
// §4.3 pipeline consumes alongside the relationship files:
//
// as2type (e.g. 20200101.as2types.txt):
//	# format: as|source|type
//	1|CAIDA_class|Transit/Access
//	714|CAIDA_class|Content
//
// as-org2info (e.g. 20200101.as-org2info.txt), a two-section file:
//	# format: org_id|changed|org_name|country|source
//	ORG-1|20200101|Example Org|US|ARIN
//	# format: aut|changed|aut_name|org_id|opaque_id|source
//	64496|20200101|EXAMPLE-AS|ORG-1||ARIN
//
// Both parsers accept the real files; the writers emit the same formats so
// synthetic datasets can be inspected with standard tooling.

// ASTypeLabel is a CAIDA as2type classification label.
type ASTypeLabel string

// The three labels CAIDA's classifier emits.
const (
	TypeLabelTransitAccess ASTypeLabel = "Transit/Access"
	TypeLabelContent       ASTypeLabel = "Content"
	TypeLabelEnterprise    ASTypeLabel = "Enterprise"
)

// AS2TypeRecord is one as2type row.
type AS2TypeRecord struct {
	AS     ASN
	Source string
	Type   ASTypeLabel
}

// ReadAS2Type parses a CAIDA as2type stream.
func ReadAS2Type(r io.Reader) (map[ASN]AS2TypeRecord, error) {
	out := make(map[ASN]AS2TypeRecord)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "|")
		if len(fields) != 3 {
			return nil, fmt.Errorf("astopo: as2type line %d: expected 3 fields, got %d", lineno, len(fields))
		}
		a, err := parseASN(fields[0])
		if err != nil {
			return nil, fmt.Errorf("astopo: as2type line %d: %w", lineno, err)
		}
		out[a] = AS2TypeRecord{AS: a, Source: fields[1], Type: ASTypeLabel(fields[2])}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("astopo: reading as2type: %w", err)
	}
	return out, nil
}

// WriteAS2Type writes records in CAIDA as2type format, sorted by ASN.
func WriteAS2Type(w io.Writer, records map[ASN]AS2TypeRecord) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "# format: as|source|type"); err != nil {
		return err
	}
	asns := make([]ASN, 0, len(records))
	for a := range records {
		asns = append(asns, a)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	for _, a := range asns {
		rec := records[a]
		src := rec.Source
		if src == "" {
			src = "CAIDA_class"
		}
		if _, err := fmt.Fprintf(bw, "%d|%s|%s\n", a, src, rec.Type); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Org is one organization from an as-org2info file.
type Org struct {
	ID      string
	Name    string
	Country string
	Source  string
}

// ASOrg maps an AS to its organization.
type ASOrg struct {
	AS    ASN
	Name  string
	OrgID string
}

// OrgDB is a parsed as-org2info dataset.
type OrgDB struct {
	Orgs map[string]Org
	ByAS map[ASN]ASOrg
}

// ReadASOrg parses a CAIDA as-org2info stream. Section membership is
// determined by the most recent "# format:" header, as in the real files.
func ReadASOrg(r io.Reader) (*OrgDB, error) {
	db := &OrgDB{Orgs: make(map[string]Org), ByAS: make(map[ASN]ASOrg)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	section := 0 // 0 unknown, 1 orgs, 2 ases
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "#") {
			switch {
			case strings.Contains(line, "org_id|changed|org_name"):
				section = 1
			case strings.Contains(line, "aut|changed|aut_name"):
				section = 2
			}
			continue
		}
		if line == "" {
			continue
		}
		fields := strings.Split(line, "|")
		switch section {
		case 1:
			if len(fields) < 5 {
				return nil, fmt.Errorf("astopo: as-org line %d: expected 5 org fields, got %d", lineno, len(fields))
			}
			db.Orgs[fields[0]] = Org{ID: fields[0], Name: fields[2], Country: fields[3], Source: fields[4]}
		case 2:
			if len(fields) < 6 {
				return nil, fmt.Errorf("astopo: as-org line %d: expected 6 AS fields, got %d", lineno, len(fields))
			}
			a, err := parseASN(fields[0])
			if err != nil {
				return nil, fmt.Errorf("astopo: as-org line %d: %w", lineno, err)
			}
			db.ByAS[a] = ASOrg{AS: a, Name: fields[2], OrgID: fields[3]}
		default:
			return nil, fmt.Errorf("astopo: as-org line %d: data before any format header", lineno)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("astopo: reading as-org: %w", err)
	}
	return db, nil
}

// WriteASOrg writes an OrgDB in CAIDA as-org2info format.
func WriteASOrg(w io.Writer, db *OrgDB) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "# format: org_id|changed|org_name|country|source"); err != nil {
		return err
	}
	orgIDs := make([]string, 0, len(db.Orgs))
	for id := range db.Orgs {
		orgIDs = append(orgIDs, id)
	}
	sort.Strings(orgIDs)
	for _, id := range orgIDs {
		o := db.Orgs[id]
		if _, err := fmt.Fprintf(bw, "%s||%s|%s|%s\n", o.ID, o.Name, o.Country, o.Source); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(bw, "# format: aut|changed|aut_name|org_id|opaque_id|source"); err != nil {
		return err
	}
	asns := make([]ASN, 0, len(db.ByAS))
	for a := range db.ByAS {
		asns = append(asns, a)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	for _, a := range asns {
		rec := db.ByAS[a]
		if _, err := fmt.Fprintf(bw, "%d||%s|%s||synthetic\n", a, rec.Name, rec.OrgID); err != nil {
			return err
		}
	}
	return bw.Flush()
}
