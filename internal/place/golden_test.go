package place

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuits"
	"repro/internal/netlist"
	"repro/internal/placement"
)

// anneal400 is BenchmarkPlaceAnneal's netlist: apex2's generator at
// 400 LUTs with 16 inputs and 16 outputs.
func anneal400(t testing.TB) *netlist.Netlist {
	t.Helper()
	spec, _ := circuits.ByName("apex2")
	s := spec.Spec(1)
	s.LUTs = 400
	s.Inputs, s.Outputs = 16, 16
	nl, err := circuits.Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

// ecoDesign is the eco benchmark's design: apex2 at scale 0.05 on a
// device two slots wider than the minimum square.
func ecoDesign(t testing.TB) (*netlist.Netlist, *arch.FPGA) {
	t.Helper()
	spec, _ := circuits.ByName("apex2")
	s := spec.Spec(0.05)
	s.Seed = 1
	nl, err := circuits.Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	return nl, arch.New(arch.MinSquare(nl.NumLUTs(), nl.NumIOs()).N + 2)
}

// locDigest hashes the location table: every live cell's ID and
// coordinates, in cell order.
func locDigest(nl *netlist.Netlist, pl *placement.Placement) string {
	h := sha256.New()
	var buf [8]byte
	nl.Cells(func(c *netlist.Cell) {
		l := pl.Loc(c.ID)
		binary.LittleEndian.PutUint32(buf[0:], uint32(c.ID))
		binary.LittleEndian.PutUint16(buf[4:], uint16(l.X))
		binary.LittleEndian.PutUint16(buf[6:], uint16(l.Y))
		h.Write(buf[:])
	})
	return hex.EncodeToString(h.Sum(nil))
}

// TestPlaceGolden pins the annealer's output bit for bit on designs
// far larger than the engine golden suite's: any change to the move
// order, the random stream or a cost's float rounding moves a digest.
func TestPlaceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("anneals 400 LUTs twice")
	}
	nl400 := anneal400(t)
	f400 := arch.MinSquare(nl400.NumLUTs(), nl400.NumIOs())
	ecoNL, ecoF := ecoDesign(t)
	for _, tc := range []struct {
		name string
		nl   *netlist.Netlist
		f    *arch.FPGA
		seed int64
		want string
	}{
		{"anneal400/seed1", nl400, f400, 1, "ac4efe01e3b5ba6db0947513285ec0bdf4e1979b06f37820f919fec68e4a3f68"},
		{"anneal400/seed2", nl400, f400, 2, "584c1631f9df6972d17fe6414a3db061f38b5f892d0516b104a0c12edcbbac41"},
		{"eco/seed1", ecoNL, ecoF, 1, "3b74da276ce211f72faa1ced36c4ee320c28faf74ea0fbedef2a540a8c7d5ece"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pl, err := Place(tc.nl, tc.f, fastOpts(tc.seed))
			if err != nil {
				t.Fatal(err)
			}
			if got := locDigest(tc.nl, pl); got != tc.want {
				t.Errorf("location table sha256 %s, want %s", got, tc.want)
			}
		})
	}
}
