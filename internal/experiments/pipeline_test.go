package experiments

import "testing"

// TestPipelineCoalescesFrames runs E16 small: a concurrent TCP commit
// workload must put more than one logical message in the average physical
// frame (MeanFrameBatch > 1, FramesPerTxn < MsgsPerTxn) while the logical
// protocol traffic — the paper's message-complexity cost, 6 exec messages
// plus 11 protocol messages for this mix — stays what the protocols say.
func TestPipelineCoalescesFrames(t *testing.T) {
	if testing.Short() {
		t.Skip("real-TCP concurrency experiment")
	}
	pt, err := MeasurePipeline(16, 300, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pt.MeanFrameBatch <= 1 {
		t.Fatalf("MeanFrameBatch = %.3f, want > 1", pt.MeanFrameBatch)
	}
	if pt.FramesPerTxn >= pt.MsgsPerTxn {
		t.Fatalf("frames/txn %.3f not below msgs/txn %.3f", pt.FramesPerTxn, pt.MsgsPerTxn)
	}
	// Decision re-sends during the drain and inquiries on a loaded host add
	// a fraction of a message; a lost or doubled round would add a whole one.
	if pt.MsgsPerTxn < 17 || pt.MsgsPerTxn >= 18 {
		t.Fatalf("logical msgs/txn = %.3f, want 17 and a fraction", pt.MsgsPerTxn)
	}
}
