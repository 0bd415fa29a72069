package main

// Workload generation. Every request vgxd sees is derived from the seed
// argument, so one seed always sends the same op sequence; the benchmark
// never lets the daemon see anything it did not generate here.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/fastvg/fastvg/internal/device"
	"github.com/fastvg/fastvg/internal/fleet"
	"github.com/fastvg/fastvg/internal/noise"
	"github.com/fastvg/fastvg/internal/service"
	"github.com/fastvg/fastvg/internal/xrand"
)

// item is one distinct request body the benchmark can send.
type item struct {
	Label string // request kind label: fast, verify, ..., twin, chain, table1-fast, tick
	Path  string
	Body  []byte
	Req   *service.Request // nil for fleet ticks and registrations
	Hash  string           // the hash every result for Req must carry
}

// op is one closed-loop operation: client Client sends Items[Item].
type op struct {
	Index  int
	Client int
	Item   int
}

// opSeq is a workload's complete input: the registrations made during
// set-up, the distinct request bodies, and the op sequence over them.
type opSeq struct {
	Setup []item
	Items []item
	Ops   []op
}

// Digest identifies the generated inputs: two runs with equal digests sent
// byte-identical requests in the same per-client order.
func (s *opSeq) Digest() string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, group := range [][]item{s.Setup, s.Items} {
		put(uint64(len(group)))
		for _, it := range group {
			put(uint64(len(it.Path)))
			h.Write([]byte(it.Path))
			put(uint64(len(it.Body)))
			h.Write(it.Body)
		}
	}
	put(uint64(len(s.Ops)))
	for _, o := range s.Ops {
		put(uint64(o.Client))
		put(uint64(o.Item))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// clientOps splits the sequence into per-client op lists, each in
// sequence order.
func (s *opSeq) clientOps(clients int) [][]op {
	out := make([][]op, clients)
	for _, o := range s.Ops {
		out[o.Client] = append(out[o.Client], o)
	}
	return out
}

// coldMixBlock is the cold-mix request mix by count — fast 35%, verify
// 10%, adaptive 5%, rays 5%, infogain 15%, baseline 5%, chain 10% and
// twin-first fast 15%. Every block of 20 consecutive ops holds exactly
// these kinds, shuffled, so the mix is exact at any op count that is a
// multiple of 20.
var coldMixBlock = []string{
	"fast", "fast", "fast", "fast", "fast", "fast", "fast",
	"verify", "verify",
	"adaptive",
	"rays",
	"infogain", "infogain", "infogain",
	"baseline",
	"chain", "chain",
	"twin", "twin", "twin",
}

// twinDevicesPerClient is how many lab devices each client owns for its
// twin-first requests.
const twinDevicesPerClient = 4

// twinThreshold is the surrogate escalation threshold of twin-first ops.
const twinThreshold = 0.35

// Seed streams: each consumer of the workload seed derives its own.
const (
	streamCold = iota + 1
	streamHot
	streamTwin
	streamFleet
	streamZipf
	streamShuffle
)

// presets are the sensor-noise presets requests cycle through.
func presets() []noise.Params {
	return []noise.Params{noise.PresetQuiet(), noise.PresetStandard(), noise.PresetUnstable()}
}

// simSpec draws a double-dot device with seeded geometry.
func simSpec(seed uint64, pn noise.Params) *device.DoubleDotSpec {
	rng := xrand.New(seed)
	return &device.DoubleDotSpec{
		SteepSlope:   -6.5 - 3*rng.Float64(),
		ShallowSlope: -0.08 - 0.08*rng.Float64(),
		CrossXFrac:   0.62 + 0.1*rng.Float64(),
		CrossYFrac:   0.58 + 0.1*rng.Float64(),
		Lambda1:      0.44 + 0.06*rng.Float64(),
		Lambda2:      0.42 + 0.06*rng.Float64(),
		Noise:        pn,
		Seed:         seed,
	}
}

// mixRequest builds the request for one cold-mix kind label on a fresh
// device seeded by seed; n counts earlier requests of the same label, so
// noise presets and chain lengths are spread evenly within each kind.
//
// Fast, verify and twin-first requests cycle the quiet and standard
// presets only: on unstable-noise double dots core.Extract returns a
// −Inf steep slope about once in 5,700 extractions, which the daemon
// cannot encode and answers with an empty 200 reply. Every other kind
// cycles all three presets.
func mixRequest(label string, seed uint64, n int) service.Request {
	pn := presets()[n%3]
	switch label {
	case "chain":
		return service.Request{Kind: service.KindChain,
			ChainSim: &device.ChainSpec{Dots: 4 + n%5, Noise: pn, Seed: seed}}
	case "twin":
		spec := simSpec(seed, presets()[n%2])
		spec.Surrogate = &device.SurrogateSpec{Threshold: twinThreshold}
		return service.Request{Kind: service.KindFast, Sim: spec}
	case "fast", "verify":
		return service.Request{Kind: service.Kind(label), Sim: simSpec(seed, presets()[n%2])}
	default:
		return service.Request{Kind: service.Kind(label), Sim: simSpec(seed, pn)}
	}
}

// batchItem encodes req as a one-request POST /v1/batch body.
func batchItem(label string, req service.Request) (item, error) {
	hash, err := req.Hash()
	if err != nil {
		return item{}, fmt.Errorf("%s request: %w", label, err)
	}
	body, err := json.Marshal(struct {
		Requests []service.Request `json:"requests"`
	}{[]service.Request{req}})
	if err != nil {
		return item{}, err
	}
	r := req
	return item{Label: label, Path: "/v1/batch", Body: body, Req: &r, Hash: hash}, nil
}

// coldMixSeq generates n cold-mix ops (rounded up to whole mix blocks) for
// the given client count. Op i belongs to client i mod clients. Every
// cacheable request is distinct; twin-first requests target the issuing
// client's own lab devices, round-robin, so each twin sees one ordered
// caller.
func coldMixSeq(seed uint64, n, clients int) (*opSeq, error) {
	blocks := (n + len(coldMixBlock) - 1) / len(coldMixBlock)
	n = blocks * len(coldMixBlock)
	shuf := xrand.New(xrand.DeriveSeed(seed, streamShuffle))
	labels := make([]string, 0, n)
	for b := 0; b < blocks; b++ {
		blk := append([]string(nil), coldMixBlock...)
		shuf.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
		labels = append(labels, blk...)
	}

	// Twin devices: client c owns devices c*4 .. c*4+3.
	twinParent := xrand.DeriveSeed(seed, streamTwin)
	twins := make([]item, clients*twinDevicesPerClient)
	for d := range twins {
		req := mixRequest("twin", xrand.DeriveSeed(twinParent, d), d%twinDevicesPerClient)
		it, err := batchItem("twin", req)
		if err != nil {
			return nil, err
		}
		twins[d] = it
	}

	seq := &opSeq{Items: twins}
	coldParent := xrand.DeriveSeed(seed, streamCold)
	perLabel := make(map[string]int)
	twinCount := make([]int, clients)
	seen := make(map[string]int)
	for i, label := range labels {
		c := i % clients
		if label == "twin" {
			dev := c*twinDevicesPerClient + twinCount[c]%twinDevicesPerClient
			twinCount[c]++
			seq.Ops = append(seq.Ops, op{Index: i, Client: c, Item: dev})
			continue
		}
		req := mixRequest(label, xrand.DeriveSeed(coldParent, i), perLabel[label])
		perLabel[label]++
		it, err := batchItem(label, req)
		if err != nil {
			return nil, err
		}
		if prev, dup := seen[it.Hash]; dup {
			return nil, fmt.Errorf("cold-mix ops %d and %d collide on request hash %s", prev, i, it.Hash)
		}
		seen[it.Hash] = i
		seq.Items = append(seq.Items, it)
		seq.Ops = append(seq.Ops, op{Index: i, Client: c, Item: len(seq.Items) - 1})
	}
	return seq, nil
}

// hotSetSize is the number of generated requests in hot-repeat's working
// set, on top of the 24 Table-1 requests.
const hotSetSize = 512

// zipfS is hot-repeat's popularity skew: rank r is drawn with weight
// 1/r^zipfS.
const zipfS = 1.0

// hotRepeatItems builds hot-repeat's working set in popularity order: the
// 24 Table-1 requests take the top ranks, then hotSetSize distinct
// cacheable requests of the cold-mix kinds, the kinds cycling in a fixed
// order so every seed puts the same kind at the same rank.
func hotRepeatItems(seed uint64) ([]item, error) {
	var items []item
	for _, req := range service.Table1Requests() {
		it, err := batchItem("table1-"+string(req.Kind), req)
		if err != nil {
			return nil, err
		}
		items = append(items, it)
	}
	var cacheable []string
	for _, l := range coldMixBlock {
		if l != "twin" {
			cacheable = append(cacheable, l)
		}
	}
	parent := xrand.DeriveSeed(seed, streamHot)
	perLabel := make(map[string]int)
	seen := make(map[string]bool)
	for k := 0; k < hotSetSize; k++ {
		label := cacheable[k%len(cacheable)]
		it, err := batchItem(label, mixRequest(label, xrand.DeriveSeed(parent, k), perLabel[label]))
		if err != nil {
			return nil, err
		}
		perLabel[label]++
		if seen[it.Hash] {
			return nil, fmt.Errorf("hot-repeat working-set entry %d collides on request hash %s", k, it.Hash)
		}
		seen[it.Hash] = true
		items = append(items, it)
	}
	return items, nil
}

// hotRepeatSeq draws n ops from the working set with Zipf skew.
func hotRepeatSeq(seed uint64, n, clients int) (*opSeq, error) {
	items, err := hotRepeatItems(seed)
	if err != nil {
		return nil, err
	}
	cdf := make([]float64, len(items))
	total := 0.0
	for r := range items {
		total += 1 / math.Pow(float64(r+1), zipfS)
		cdf[r] = total
	}
	for r := range cdf {
		cdf[r] /= total
	}
	rng := xrand.New(xrand.DeriveSeed(seed, streamZipf))
	seq := &opSeq{Items: items, Ops: make([]op, n)}
	for i := range seq.Ops {
		r := sort.SearchFloat64s(cdf, rng.Float64())
		if r >= len(items) {
			r = len(items) - 1
		}
		seq.Ops[i] = op{Index: i, Client: i % clients, Item: r}
	}
	return seq, nil
}

// Fleet-loop composition: 12 double dots cycling the quiet, standard and
// wandering profiles, and 4 four-dot chains.
const (
	fleetDoubleDots = 12
	fleetChains     = 4
	fleetChainDots  = 4
	fleetTickS      = 300.0
)

// fleetDevices returns the fleet-loop device registrations: the quiet,
// standard and wandering double dots of the default fleet (jumpy ones
// left out) and its chains. Recalibrating jumpy double dots hits the −Inf
// steep-slope extraction (see mixRequest) within about 1,200 ticks; the
// fleet journal cannot encode the device and ticks fail with a 400 until
// the pair is recalibrated again.
func fleetDevices(seed uint64) ([]fleet.DeviceConfig, error) {
	parent := xrand.DeriveSeed(seed, streamFleet)
	all, err := fleet.DefaultFleet(fleetDoubleDots*4/3, parent)
	if err != nil {
		return nil, err
	}
	var devs []fleet.DeviceConfig
	for _, d := range all {
		if !strings.HasPrefix(d.ID, fleet.ProfileJumpy) {
			devs = append(devs, d)
		}
	}
	return append(devs, fleet.DefaultChainFleet(fleetChains, fleetChainDots, parent)...), nil
}

// fleetLoopSeq generates the fleet-loop input: the registrations of devs
// and n ticks of fleetTickS virtual seconds from one client.
func fleetLoopSeq(devs []fleet.DeviceConfig, n int) (*opSeq, error) {
	seq := &opSeq{}
	for _, d := range devs {
		body, err := json.Marshal(d)
		if err != nil {
			return nil, err
		}
		seq.Setup = append(seq.Setup, item{Label: "register", Path: "/v1/fleet/devices", Body: body})
	}
	body, err := json.Marshal(map[string]float64{"advanceS": fleetTickS})
	if err != nil {
		return nil, err
	}
	seq.Items = []item{{Label: "tick", Path: "/v1/fleet/tick", Body: body}}
	seq.Ops = make([]op, n)
	for i := range seq.Ops {
		seq.Ops[i] = op{Index: i}
	}
	return seq, nil
}
