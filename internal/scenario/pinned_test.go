// Floating-point results are only pinned where the compiler emits no
// fused multiply-adds: arm64 and GOAMD64=v3 may fuse a*b+c into one
// rounding, which legitimately shifts the last bits of every run.
//go:build amd64 && !amd64.v3

package scenario

import (
	"fmt"
	"testing"

	"pnps/internal/pv"
	"pnps/internal/testutil"
)

// pinnedDigests are testutil.ResultDigest values of every registry
// scenario under each matrix storage family at the matrix span, seed
// 1000*scenario index + 100*storage index. They pin outcomes across
// commits: a refactor of the integrator or the event loop that shifts a
// single bit of any scalar or series sample changes a digest. Update
// them only for a change that is meant to alter results.
var pinnedDigests = map[string]string{
	"fig11-bench/idealcap":      "784f250d8618e760cf53dc074203ddef90695f98035da52d2d636f8feba4b1c7",
	"fig11-bench/supercap":      "6806d1cc1a60e911c41edf6cebdda934909d62238611a3ae9c72b02f01207499",
	"fig11-bench/hybridcap":     "28421cb223d852f371eb9b8a37e0375d1aad3006e5aa07a76b0e297d423c57b1",
	"fig12-fullsun/idealcap":    "fa20ae2536bf7fc944cfae54d846f1f6997a3dc2c8e2355b2fd7a55ea36b858f",
	"fig12-fullsun/supercap":    "a0ae126e383043fd49d124eb6d8027e21eccc08717b1fb193ae1eecc512ab54b",
	"fig12-fullsun/hybridcap":   "16eaae6692d4e7c925c649aab9a78f3e6adbf5763294a1fd33e63c06e2ae7281",
	"fig6-shadow/idealcap":      "1724c7eb21e6b22ffe1022be9f62f6f5acc43e2779a64f18a21ebaf900833716",
	"fig6-shadow/supercap":      "cf1f72806d500fec307d9f2488cbcc1f72c62924d411ff8e88bbea9ad47659cf",
	"fig6-shadow/hybridcap":     "5b6bacc7b91c627265c1c077f3ff89592dbd0b34fda53526e922cc7a2344c537",
	"overcast-day/idealcap":     "0008b84609fc78c0b23dd340d9f3dda97387ee5443f08f458c146118cfbeef4b",
	"overcast-day/supercap":     "31d4beb2c39ddaa03859db5a30443598764eebe4b08eff3d6b0b125bc985c02c",
	"overcast-day/hybridcap":    "779cd5638b2a1665d4133097c634bb2ba05d9c65f600fb75fc2a2f8cb1dcdb44",
	"solar-day/idealcap":        "0008b84609fc78c0b23dd340d9f3dda97387ee5443f08f458c146118cfbeef4b",
	"solar-day/supercap":        "31d4beb2c39ddaa03859db5a30443598764eebe4b08eff3d6b0b125bc985c02c",
	"solar-day/hybridcap":       "779cd5638b2a1665d4133097c634bb2ba05d9c65f600fb75fc2a2f8cb1dcdb44",
	"steady-sun/idealcap":       "ddf3f8c5c95c8679fbace9832acb9924ef83ad8673225403c9a051b7f8e49a58",
	"steady-sun/supercap":       "dcf2536c716991341820c252841faf7396a4dbaad97b18b57cf891f65c7f1bb2",
	"steady-sun/hybridcap":      "e0ad2d6916a67861c4ebca2dfe988c2ed6952cc8f0ac29588ccc5d7a347db772",
	"stress-clouds/idealcap":    "ddf3f8c5c95c8679fbace9832acb9924ef83ad8673225403c9a051b7f8e49a58",
	"stress-clouds/supercap":    "dcf2536c716991341820c252841faf7396a4dbaad97b18b57cf891f65c7f1bb2",
	"stress-clouds/hybridcap":   "75569f308dcaa2df7f5161003f3c619670440b3c35d2b79a5c4a5a48eff1fbc6",
	"stress-hybrid/idealcap":    "e9098f81ab6fbfdf8e4fd84e0f40bf7e87b99fa860d9c6900d369d95e4fdae7f",
	"stress-hybrid/supercap":    "dcf2536c716991341820c252841faf7396a4dbaad97b18b57cf891f65c7f1bb2",
	"stress-hybrid/hybridcap":   "e0ad2d6916a67861c4ebca2dfe988c2ed6952cc8f0ac29588ccc5d7a347db772",
	"stress-supercap/idealcap":  "dcf2536c716991341820c252841faf7396a4dbaad97b18b57cf891f65c7f1bb2",
	"stress-supercap/supercap":  "dcf2536c716991341820c252841faf7396a4dbaad97b18b57cf891f65c7f1bb2",
	"stress-supercap/hybridcap": "e0ad2d6916a67861c4ebca2dfe988c2ed6952cc8f0ac29588ccc5d7a347db772",
	"table2-harvest/idealcap":   "cee6a4301a80291566935b4eb4945b83e7f17a43c3466ac56aeff10a9254f8d2",
	"table2-harvest/supercap":   "77c9c38948aab7b7e8d3c5f638dea721e21794eed18098fdbc779410b03edfb7",
	"table2-harvest/hybridcap":  "013d7b9623e63c9b60e0bd7f6fc3619d69312e642b2c6969a6ea09c962091b71",
}

// pinnedSpans pin what the 6 s matrix span cannot: over its first 6 s
// solar-day and overcast-day are night (Day.Irradiance is 0) and no
// stress-clouds event has begun, so those matrix rows equal other
// scenarios' rows. Each span runs the scenario on its default storage,
// its profile realised over the scenario's full duration and shifted
// to start seconds in (pv.Offset), for span seconds at seed 1.
var pinnedSpans = []struct {
	name        string
	start, span float64
	digest      string
}{
	{"stress-clouds", 0, 120, "c9e1c3d048ad9ac315abb09659d33aa89e129d3eb7f1dfccdc9e6fb20b74984f"},
	{"solar-day", 12 * 3600, 60, "51e05d97b87990d062fea4e144754976603775f706e18d127a218b519a589bc3"},
	{"overcast-day", 12 * 3600, 60, "4ab4ed96248a4cab9552d1831b0cf9df489f3e959b1148a126b34329bdb810fc"},
}

// spanSpec returns the named scenario cut to [start, start+span) of its
// profile.
func spanSpec(name string, start, span float64) Spec {
	spec := MustLookup(name)
	full, profile := spec.Duration, spec.Profile
	spec.Profile = func(seed int64, _ float64) pv.Profile {
		p := profile(seed, full)
		if start == 0 {
			return p
		}
		return pv.Offset{Base: p, T0: start}
	}
	spec.Duration = span
	return spec
}

// TestScenarioPinnedOutcomes runs the scenario × storage matrix and the
// pinned spans once and compares each result's digest with its pinned
// value. A span's digest must also differ from the same run under
// constant irradiance at the profile's starting level, so that the row
// pins the profile's variation and not just its first value.
func TestScenarioPinnedOutcomes(t *testing.T) {
	names := Names()
	for si, name := range names {
		for sti, st := range matrixStorages {
			key := name + "/" + st.name
			seed := int64(1000*si + 100*sti)
			res, err := matrixSpec(name, st.mk()).Run(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", key, seed, err)
			}
			if got := testutil.ResultDigest(res); got != pinnedDigests[key] {
				t.Errorf("%s seed %d: digest %s, pinned %s", key, seed, got, pinnedDigests[key])
			}
		}
	}
	for _, ps := range pinnedSpans {
		key := fmt.Sprintf("%s/%gs@%gs", ps.name, ps.span, ps.start)
		spec := spanSpec(ps.name, ps.start, ps.span)
		res, err := spec.Run(1)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		got := testutil.ResultDigest(res)
		if got != ps.digest {
			t.Errorf("%s: digest %s, pinned %s", key, got, ps.digest)
		}
		spec.Profile = FixedProfile(pv.Constant(spec.Profile(1, ps.span).Irradiance(0)))
		flat, err := spec.Run(1)
		if err != nil {
			t.Fatalf("%s at constant irradiance: %v", key, err)
		}
		if testutil.ResultDigest(flat) == got {
			t.Errorf("%s: digest equals the constant-irradiance run's; the span pins no profile variation", key)
		}
	}
	if len(names)*len(matrixStorages) != len(pinnedDigests) {
		t.Errorf("matrix has %d cells, %d pinned", len(names)*len(matrixStorages), len(pinnedDigests))
	}
}
