package main

// pinnedDigests maps "<size>/<workload>" to the obs.Digest of the run
// records a seed-1 pass must produce: the manifest of a simulation
// workload's pass, or the prefilled corpus of serve_mixed. The digest
// leaves out wall time and shard count, so the values hold on any host
// and at any shard count; each was computed at one shard, at the
// automatic count and at two shards, and all three agreed.
var pinnedDigests = map[string]string{
	"full/paper_grid":      "3a07ce426fb676abc6f45eb552a95560a4f50922a972f8c2aadbd722319533cb",
	"full/scale_4096":      "fd4f9dbc6a4236b784b216619a49a70737829f51e6a3dee74f235db460357985",
	"full/observed_sweep":  "2552649798bd8e381e2d0828833e4fb190fbf8671cc9d1d57568a73d778e77f3",
	"full/serve_mixed":     "fb1a1ac0486a790da171d718b09918b81fc13e55ab39cbe24cacb56f2316a900",
	"smoke/paper_grid":     "bd08a002f4f38101b88a3ed5623d242290275e1596c1b7ceebb3a39c02795ae2",
	"smoke/scale_4096":     "b9d724c03546117c471357ebcf015d00769604a358e49db0b1ef0e01eff13809",
	"smoke/observed_sweep": "af776a3f05c62f21b7a8f4b7a7ca9bb86a2e5b10cf66f24bb6b88572451c1f25",
	"smoke/serve_mixed":    "8f664c34b127b66c6bc4beb788a8a39090c64df9cad8601eb0c38a62cef474e6",
}
