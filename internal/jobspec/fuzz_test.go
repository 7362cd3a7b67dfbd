package jobspec

import (
	"encoding/json"
	"testing"
)

// FuzzSpec: any JSON body the job server accepts normalizes to a spec
// within the size caps, whose scripts stay within them too and whose
// engine config compiles. No engine runs.
func FuzzSpec(f *testing.F) {
	for _, seed := range []string{
		// The perfbench workloads and the reprod-durable job mix.
		`{"kind":"explore","alg":"queue","waiters":4,"polls":3,"depth":22,"workers":2}`,
		`{"kind":"worstcase","alg":"queue","waiters":4,"polls":3,"depth":22,"model":"cc","workers":1}`,
		`{"kind":"worstcase","alg":"fixed-waiters","waiters":7,"polls":2,"depth":20,"model":"dsm","reduce":true,"workers":1}`,
		`{"kind":"worstcase","alg":"queue","waiters":3,"polls":3,"depth":16,"model":"cc","workers":2}`,
		`{"kind":"explore","alg":"queue","waiters":3,"polls":3,"depth":20,"workers":2}`,
		`{"kind":"worstcase","alg":"fixed-waiters","waiters":5,"polls":2,"depth":14,"model":"dsm","reduce":true,"workers":2}`,
		`{"kind":"worstcase","alg":"flag","waiters":3,"polls":3,"depth":24,"model":"cc","workers":2}`,
		`{"kind":"explore","alg":"flag","waiters":8,"polls":1,"depth":12,"reduce":true,"workers":2}`,
		// The README's job-server example.
		`{"kind":"worstcase","alg":"flag","waiters":2,"polls":2,"depth":10}`,
		// Faults, sample mode, and values past the caps.
		`{"kind":"explore","alg":"cas-register","faults":1,"faultKinds":"crash","faultVol":"owned"}`,
		`{"kind":"worstcase","mode":"sample","seed":3,"walks":4096}`,
		`{"kind":"worstcase","polls":4611686018427387904}`,
		`{"kind":"explore","waiters":1025,"workers":-1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var s Spec
		if json.Unmarshal(body, &s) != nil || s.Normalize() != nil {
			return
		}
		if s.Waiters > maxWaiters || s.Polls > maxPolls || s.Depth > maxDepth ||
			s.Walks > maxWalks || s.Workers > maxWorkers {
			t.Fatalf("accepted a spec past the caps: %+v", s)
		}
		n, scripts := s.Scripts()
		calls := 0
		for _, script := range scripts {
			calls += len(script)
		}
		if n > maxWaiters+2 || len(scripts) > maxWaiters+1 || calls > maxWaiters*maxPolls+1 {
			t.Fatalf("scripts past the caps: n=%d, %d scripts, %d calls", n, len(scripts), calls)
		}
		var err error
		if s.Kind == KindExplore {
			_, err = s.ExploreConfig()
		} else {
			_, err = s.SearchConfig()
		}
		if err != nil {
			t.Fatalf("normalized spec %+v does not compile: %v", s, err)
		}
	})
}
