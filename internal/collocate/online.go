package collocate

// Online incremental re-clustering: as the served tenant mix drifts away from
// the offline training set, the control plane folds freshly observed feature
// vectors into the K-Means stage with sequential (MacQueen) centroid updates
// instead of a full retrain. The PCA projection and the cluster-pair
// performance database stay frozen — only centroid *positions* move, so
// PredictCluster keeps tracking the live mix while PredictPerf still reads
// the offline-profiled cluster pairs.

// CloneForOnline returns a copy of the model whose K-Means centroids can be
// updated online without mutating the receiver. The PCA projection and the
// profiled cluster-pair performance tables are shared (they are immutable
// after training); the centroid matrix and per-centroid observation counts
// are deep-copied. Cloning is what keeps counterfactual replay exact: each
// fleet run updates its own copy, so re-running a seeded scenario starts from
// the same offline centroids every time.
func (m *Model) CloneForOnline() *Model {
	out := &Model{
		cfg:        m.cfg,
		pca:        m.pca,
		km:         m.km.Clone(),
		perf:       m.perf,
		perfKnown:  m.perfKnown,
		globalMean: m.globalMean,
	}
	out.onlineCounts = make([]int, out.km.Centroids.Rows)
	// Seed the per-centroid counts from the training assignment so early
	// online observations move centroids gently instead of teleporting them.
	for _, c := range m.km.Labels {
		if c >= 0 && c < len(out.onlineCounts) {
			out.onlineCounts[c]++
		}
	}
	if m.onlineCounts != nil {
		copy(out.onlineCounts, m.onlineCounts)
		out.onlineDrift = m.onlineDrift
		out.onlineObs = m.onlineObs
	}
	return out
}

// WithThreshold returns a shallow copy of the model whose predicted-beneficial
// cutoff is th (ShouldCollocate and GroupFit compare predicted pair
// performance against it). Everything else — PCA projection, centroids, the
// profiled performance tables — is shared with the receiver, which is never
// mutated; the policy-search harness sweeps the threshold over one trained
// model this way instead of retraining per candidate. th must be positive;
// a non-positive th returns the receiver unchanged (the trained cutoff).
func (m *Model) WithThreshold(th float64) *Model {
	if m == nil || th <= 0 || th == m.cfg.Threshold {
		return m
	}
	out := *m
	out.cfg.Threshold = th
	return &out
}

// Threshold reports the model's predicted-beneficial cutoff.
func (m *Model) Threshold() float64 { return m.cfg.Threshold }

// Observe folds one live feature vector into the clustering: it assigns f to
// its nearest centroid, nudges that centroid toward f with learning rate
// 1/(count+1) (the MacQueen sequential K-Means step), and returns the cluster
// plus the Euclidean distance the centroid moved in PCA space. Calling
// Observe on a model that was not cloned via CloneForOnline panics — online
// updates on the shared trained model would corrupt every other user.
func (m *Model) Observe(f Features) (cluster int, moved float64) {
	if m.onlineCounts == nil {
		panic("collocate: Observe requires a model cloned via CloneForOnline")
	}
	var buf [projBuf]float64
	x := m.pca.TransformInto(buf[:0], f.Vec)
	cluster = m.km.Predict(x)
	lr := 1.0 / float64(m.onlineCounts[cluster]+1)
	moved = m.km.UpdateCentroid(cluster, x, lr)
	m.onlineCounts[cluster]++
	m.onlineDrift += moved
	m.onlineObs++
	return cluster, moved
}

// OnlineDrift returns the cumulative Euclidean centroid movement accumulated
// by Observe since the clone, and the number of observations folded in.
func (m *Model) OnlineDrift() (drift float64, observations int) {
	return m.onlineDrift, m.onlineObs
}
