package lib

// Hook is a test hook declared in a test file: not flagged.
var Hook = hook
