package plan

// FlowWalks counts the flow analyses made (Analyze), for the tests of
// package plan_test.
var FlowWalks = &flowWalks
