#include "operators/top_k.h"

#include "common/macros.h"
#include "operators/iteration_task.h"

namespace vaolib::operators {

Result<TopKOutcome> TopKVao::Evaluate(
    const std::vector<vao::ResultObject*>& objects) const {
  // The whole boundary-separation and finalization loop lives in the
  // resumable task; Evaluate just drives it to completion.
  VAOLIB_ASSIGN_OR_RETURN(auto task,
                          TopKIterationTask::Create(options_, objects));
  VAOLIB_RETURN_IF_ERROR(DriveTask(task.get(), options_.meter));
  return task->Snapshot();
}

}  // namespace vaolib::operators
