package topo

import (
	"encoding/binary"
	"testing"
)

// FuzzCandidates checks the sampler against the reference builders on fuzzed
// geometries. The input decodes as:
//
//	[0] groups (1-6)   [1] chassis per group (1-4)   [2] blades per chassis (1-6)
//	[3] global ports per router (1-4)   [4:6] source router   [6:8] destination router
//	[8:16] seed   [16] bit 0 set: sample without an rng
//
// Missing bytes read as zero. Chassis and blade counts of one give the
// one-chassis and one-blade shapes; one port per router is the fewest
// Validate allows, down to one link per group pair, and collapses port
// assignments onto already-connected router pairs. (No valid geometry leaves
// two groups without a direct link; TestEveryGroupPairConnected pins that.)
// Geometries Validate rejects are skipped. Both candidates must equal the
// reference paths, carry per-tier counts that match Link(id).Type, and leave
// the rng where the reference leaves it.
func FuzzCandidates(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := make([]byte, 17)
		copy(in, data)
		cfg := Config{
			Groups:                1 + int(in[0])%6,
			ChassisPerGroup:       1 + int(in[1])%4,
			BladesPerChassis:      1 + int(in[2])%6,
			NodesPerBlade:         1,
			GlobalLinksPerRouter:  1 + int(in[3])%4,
			IntraGroupLinkWidth:   1,
			IntraChassisLinkWidth: 1,
			GlobalLinkWidth:       1,
		}
		if cfg.Validate() != nil {
			return
		}
		tp := MustNew(cfg)
		n := tp.NumRouters()
		src := RouterID(int(binary.LittleEndian.Uint16(in[4:])) % n)
		dst := RouterID(int(binary.LittleEndian.Uint16(in[6:])) % n)
		seed := int64(binary.LittleEndian.Uint64(in[8:]))
		checkSampler(t, tp, src, dst, seed, in[16]&1 == 0)
	})
}
