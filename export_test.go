package llmprism

// StreamAll drives records through a monitor stream for the external test
// package, which builds its analyzers from internal/session: an import the
// in-package tests cannot make, since session imports this package.
var StreamAll = streamAll
