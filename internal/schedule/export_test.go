package schedule

// ResetMemo lets the external tests (tuned_test.go) start a search from an
// empty simulation memo.
var ResetMemo = resetMemo
