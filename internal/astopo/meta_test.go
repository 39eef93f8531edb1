package astopo

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

const sampleAS2Type = `# format: as|source|type
1|CAIDA_class|Transit/Access
714|CAIDA_class|Content
64496|CAIDA_class|Enterprise
`

func TestReadAS2Type(t *testing.T) {
	recs, err := ReadAS2Type(strings.NewReader(sampleAS2Type))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[714].Type != TypeLabelContent {
		t.Errorf("AS714 type = %q", recs[714].Type)
	}
	if recs[1].Source != "CAIDA_class" {
		t.Errorf("source = %q", recs[1].Source)
	}
}

func TestAS2TypeRoundTrip(t *testing.T) {
	in := map[ASN]AS2TypeRecord{
		5:   {AS: 5, Source: "CAIDA_class", Type: TypeLabelTransitAccess},
		9:   {AS: 9, Source: "", Type: TypeLabelEnterprise}, // source defaulted
		100: {AS: 100, Source: "peeringdb", Type: TypeLabelContent},
	}
	var buf bytes.Buffer
	if err := WriteAS2Type(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadAS2Type(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out[9].Source != "CAIDA_class" {
		t.Errorf("defaulted source = %q", out[9].Source)
	}
	if out[5].Type != TypeLabelTransitAccess || out[100].Type != TypeLabelContent {
		t.Error("types lost in round trip")
	}
}

func TestReadAS2TypeErrors(t *testing.T) {
	for _, in := range []string{"1|x\n", "y|s|Content\n"} {
		if _, err := ReadAS2Type(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

const sampleASOrg = `# format: org_id|changed|org_name|country|source
ORG-1|20200101|Example Org|US|ARIN
ORG-2|20200101|Other Org|DE|RIPE
# format: aut|changed|aut_name|org_id|opaque_id|source
64496|20200101|EXAMPLE-AS|ORG-1||ARIN
64497|20200101|EXAMPLE-AS-2|ORG-1||ARIN
64511|20200101|OTHER-AS|ORG-2||RIPE
`

func TestReadASOrg(t *testing.T) {
	db, err := ReadASOrg(strings.NewReader(sampleASOrg))
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := db.ByAS[64496]
	if !ok || rec.OrgID != "ORG-1" || rec.Name != "EXAMPLE-AS" {
		t.Errorf("ByAS[64496] = %+v, %v", rec, ok)
	}
	if org := db.Orgs[rec.OrgID]; org.Name != "Example Org" || org.Country != "US" {
		t.Errorf("Orgs[%q] = %+v", rec.OrgID, org)
	}
	if _, ok := db.ByAS[1]; ok {
		t.Error("unknown AS resolved")
	}
	var sibs []ASN
	for asn, r := range db.ByAS {
		if asn != 64496 && r.OrgID == rec.OrgID {
			sibs = append(sibs, asn)
		}
	}
	if !reflect.DeepEqual(sibs, []ASN{64497}) {
		t.Errorf("siblings of 64496 = %v", sibs)
	}
}

func TestASOrgRoundTrip(t *testing.T) {
	db, err := ReadASOrg(strings.NewReader(sampleASOrg))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteASOrg(&buf, db); err != nil {
		t.Fatal(err)
	}
	db2, err := ReadASOrg(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(db2.Orgs) != len(db.Orgs) || len(db2.ByAS) != len(db.ByAS) {
		t.Fatalf("round trip sizes: %d/%d vs %d/%d", len(db2.Orgs), len(db2.ByAS), len(db.Orgs), len(db.ByAS))
	}
	for a, rec := range db.ByAS {
		if db2.ByAS[a].OrgID != rec.OrgID {
			t.Errorf("AS%d org changed", a)
		}
	}
}

func TestReadASOrgErrors(t *testing.T) {
	if _, err := ReadASOrg(strings.NewReader("ORG-1|x|y|z|w\n")); err == nil {
		t.Error("data before header accepted")
	}
	bad := "# format: aut|changed|aut_name|org_id|opaque_id|source\nnotanasn|x|y|z|o|s\n"
	if _, err := ReadASOrg(strings.NewReader(bad)); err == nil {
		t.Error("bad ASN accepted")
	}
}
