package population

import (
	"math"
	"sort"
	"testing"

	"flatnet/internal/topogen"
)

func buildModel(t *testing.T) (*topogen.Internet, *Model) {
	t.Helper()
	in, err := topogen.Generate(topogen.Internet2020(0.0285))
	if err != nil {
		t.Fatal(err)
	}
	return in, Build(in, 1.1)
}

func TestTypesFollowClasses(t *testing.T) {
	in, m := buildModel(t)
	for i, a := range in.Graph.ASes() {
		got := m.Type(a)
		var want ASType
		switch in.ClassAt(i) {
		case topogen.ClassAccess:
			want = TypeAccess
		case topogen.ClassContent, topogen.ClassCloud:
			want = TypeContent
		case topogen.ClassEnterprise:
			want = TypeEnterprise
		default:
			want = TypeTransit
		}
		if got != want {
			t.Fatalf("AS%d: type %v, want %v (class %v)", a, got, want, in.ClassAt(i))
		}
	}
	if m.Type(4000000000) != TypeEnterprise {
		t.Error("unknown AS should default to enterprise")
	}
}

func TestOnlyAccessHasUsers(t *testing.T) {
	in, m := buildModel(t)
	for _, a := range in.Graph.ASes() {
		if in.ClassOf(a) == topogen.ClassAccess {
			if !m.IsEyeball(a) {
				t.Fatalf("access AS%d has no users", a)
			}
		} else if m.IsEyeball(a) {
			t.Fatalf("non-access AS%d (%v) has users", a, in.ClassOf(a))
		}
	}
}

func TestSharesSumToOne(t *testing.T) {
	in, m := buildModel(t)
	var sum float64
	for _, a := range in.Graph.ASes() {
		sum += m.Share(a)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	w := m.WeightsDense(in.Graph)
	var wsum float64
	for _, v := range w {
		wsum += v
	}
	if math.Abs(wsum-1) > 1e-9 {
		t.Errorf("dense weights sum to %v", wsum)
	}
}

// The user distribution must be heavy-tailed: the top 10% of eyeball ASes
// hold well over half the users (APNIC's real skew is stronger still).
func TestUserDistributionHeavyTailed(t *testing.T) {
	in, m := buildModel(t)
	var users []float64
	for _, a := range in.Graph.ASes() {
		if u := m.Users(a); u > 0 {
			users = append(users, u)
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(users)))
	top := len(users) / 10
	var topSum, total float64
	for i, u := range users {
		total += u
		if i < top {
			topSum += u
		}
	}
	if frac := topSum / total; frac < 0.5 {
		t.Errorf("top 10%% of eyeball ASes hold %.2f of users, want >= 0.5", frac)
	}
}

func TestDeterministic(t *testing.T) {
	in, err := topogen.Generate(topogen.Internet2020(0.0285))
	if err != nil {
		t.Fatal(err)
	}
	m1 := Build(in, 1.1)
	m2 := Build(in, 1.1)
	for _, a := range in.Graph.ASes() {
		if m1.Users(a) != m2.Users(a) {
			t.Fatalf("nondeterministic users for AS%d", a)
		}
	}
}

func TestCountByType(t *testing.T) {
	in, m := buildModel(t)
	all := make([]int32, in.Graph.NumASes())
	for i := range all {
		all[i] = int32(i)
	}
	counts := m.CountByType(all)
	var total int
	for _, n := range counts {
		total += n
	}
	if total != in.Graph.NumASes() {
		t.Errorf("CountByType total %d != %d ASes", total, in.Graph.NumASes())
	}
	if counts[TypeAccess] == 0 || counts[TypeEnterprise] == 0 || counts[TypeTransit] == 0 || counts[TypeContent] == 0 {
		t.Errorf("some type empty: %v", counts)
	}
}
