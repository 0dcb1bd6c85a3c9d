package fleet

// Journal record kinds, exported so chaos tests can hand-craft wal files
// (duplicate terminals, orphans) that the writer itself would never
// produce.
const (
	WalSubmitKind = walSubmit
	WalDoneKind   = walDone
	WalCancelKind = walCancel
)

// SubmitUnchecked enqueues specs without Validate. A spec Validate accepts
// always builds, so this is how tests reach the admission-time Build
// failure path.
func (s *Server) SubmitUnchecked(specs []JobSpec) ([]uint64, error) {
	return s.enqueue(specs)
}
