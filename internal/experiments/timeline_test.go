package experiments

import (
	"bytes"
	"testing"
)

// timelineRows012 is `flatnet timeline report -scale 0.012`: the header and
// the eleven yearly rows, each year's world hash and the paper clouds'
// hierarchy-free reach. Any change to growth, hashing or propagation that
// moves a byte of the series shows up here.
const timelineRows012 = `year  world            ases    links              Google           Microsoft                 IBM              Amazon
2015  764fa5d78f34      621     4112         503 (81.1%)         146 (23.5%)         452 (72.9%)          27 ( 4.4%)
2016  d854dd3bd867      664     4474         540 (81.4%)         213 (32.1%)         486 (73.3%)         113 (17.0%)
2017  be1af47b3093      706     4904         577 (81.8%)         408 (57.9%)         518 (73.5%)         192 (27.2%)
2018  9ac71635f30d      748     5302         615 (82.3%)         488 (65.3%)         552 (73.9%)         270 (36.1%)
2019  fec522406874      791     5772         654 (82.8%)         633 (80.1%)         584 (73.9%)         382 (48.4%)
2020  34e7cb33bfb4      833     6326         693 (83.3%)         670 (80.5%)         615 (73.9%)         510 (61.3%)
2021  94508efac858      876     6977         739 (84.5%)         730 (83.4%)         654 (74.7%)         549 (62.7%)
2022  f4c60ee7d823      918     7555         786 (85.7%)         773 (84.3%)         689 (75.1%)         578 (63.0%)
2023  2cc059050e0f      961     8227         822 (85.6%)         808 (84.2%)         722 (75.2%)         636 (66.2%)
2024  bb4e4c5d4143     1003     8949         866 (86.4%)         845 (84.3%)         754 (75.2%)         679 (67.8%)
2025  4c5132b1addc     1046     9833         904 (86.5%)         880 (84.2%)         787 (75.3%)         709 (67.8%)
`

func TestTimelineRows(t *testing.T) {
	rows, err := TimelineAt(0.012)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	PrintTimeline(&buf, rows)
	if got := buf.String(); got != timelineRows012 {
		t.Fatalf("timeline rows at scale 0.012:\n%s\nwant:\n%s", got, timelineRows012)
	}
}
