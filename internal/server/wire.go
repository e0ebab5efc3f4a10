package server

import "cordoba/api"

// The JSON wire contract lives in the public api package; the server aliases
// the types its handlers name, so requests and responses stay structurally
// identical to what clients import. The golden
// tests in api/ lock the rendered format.
type (
	AccelSpec          = api.AccelSpec
	AccountingRequest  = api.AccountingRequest
	AccountingResponse = api.AccountingResponse

	SweepSpec     = api.SweepSpec
	DSERequest    = api.DSERequest
	DSEPoint      = api.DSEPoint
	SweepEntry    = api.SweepEntry
	DSEResponse   = api.DSEResponse
	SurrogateInfo = api.SurrogateInfo

	ClusterStatus = api.ClusterStatus

	ScheduleRequest  = api.ScheduleRequest
	ScheduleWindow   = api.ScheduleWindow
	ScheduleResponse = api.ScheduleResponse

	traceInfo      = api.TraceInfo
	experimentInfo = api.ExperimentInfo
	taskInfo       = api.TaskInfo
	configInfo     = api.ConfigInfo
	modelInfo      = api.ModelInfo
	modelsResponse = api.ModelsResponse

	errorEnvelope = api.ErrorEnvelope
	errorBody     = api.ErrorBody
)
